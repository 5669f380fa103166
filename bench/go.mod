module dbgc/bench

go 1.22

require dbgc v0.0.0

replace dbgc => ../
