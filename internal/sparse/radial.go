package sparse

import (
	"fmt"

	"dbgc/internal/polyline"
)

// Radial reference-point symbols recorded in L_ref when situation (2)(b)
// of §3.5 step 8 applies. The bottom-left point needs no symbol in
// situations (1) and (2)(a); in (2)(b) the chosen candidate is transmitted.
const (
	refBottomLeft = 0 // preceding point in the same polyline
	refUpperLeft  = 1 // rightmost consensus point left of θ_p
	refUpperRight = 2 // leftmost consensus point right of θ_p
	refUpperMid   = 3 // consensus point exactly at θ_p, when present
)

// codeRadial is the radial distance optimized delta encoding (§3.5 step 8)
// over the lines of one group, in either direction. radials holds ∇L_r, one
// value per point in line order, and refs is L_ref. Encoding reads every
// point's r, fills radials and appends a symbol to refs, which comes in
// empty, for each point in situation (2)(b), and returns refs; decoding
// reads both, sets every point's r, fails if refs runs out, and returns the
// symbols of refs the lines took — all of them, unless the lines are a
// prefix of the group's, which its caller knows. Which reference a point
// takes depends only on values that precede it, so the decoder replays the
// encoder's decisions, and a prefix of the lines replays alone. With
// plainDelta the reference is always the preceding point (heads reference
// the previous head): classic delta encoding, the -Radial ablation.
func codeRadial(cons *polyline.Consensus, lines []polyline.Line, thPhi, thR int64, plainDelta, decode bool, radials []int64, refs []byte) ([]byte, error) {
	rp, refp := 0, 0
	settle := func(p *polyline.Point, ref int64) {
		if decode {
			p.R = radials[rp] + ref
		} else {
			radials[rp] = p.R - ref
		}
		rp++
	}
	for i, l := range lines {
		// Situation (1), a head: the rightmost consensus point left of it,
		// else the head of the preceding polyline, else zero.
		var ref int64
		if i > 0 {
			ref = lines[i-1].Head().R
		}
		if !plainDelta {
			cons.Advance(lines, i, thPhi)
			cons.Find(l[0].Theta)
			if ul, ok := cons.Left(); ok {
				ref = ul
			}
		}
		settle(&l[0], ref)
		for k := 1; k < len(l); k++ {
			p, bl := &l[k], l[k-1].R
			if plainDelta {
				settle(p, bl)
				continue
			}
			cons.Walk(p.Theta)
			ul, okUL := cons.Left()
			ur, okUR := cons.Right()
			if !okUL || !okUR || abs64(ul-ur) <= thR && abs64(ul-bl) <= thR && abs64(ur-bl) <= thR {
				// Situation (2)(a): no consensus neighbors, or a locally
				// flat scene; the bottom-left point is the reference and
				// nothing is recorded. (An averaged bl/ul/ur reference was
				// evaluated to suppress reference noise, but the consensus
				// neighbors sit at different azimuths, and on sloped
				// surfaces their bias costs more than the smoothing saves.)
				settle(p, bl)
				continue
			}
			// Situation (2)(b): the candidates by symbol; only the
			// upper-middle one can be absent.
			cand := [4]int64{refBottomLeft: bl, refUpperLeft: ul, refUpperRight: ur}
			n := refUpperMid
			if um, ok := cons.At(); ok {
				cand[refUpperMid] = um
				n++
			}
			var sym int
			if decode {
				if refp >= len(refs) {
					return nil, fmt.Errorf("%w: L_ref exhausted", ErrCorrupt)
				}
				sym = int(refs[refp])
				refp++
				if sym >= n {
					return nil, fmt.Errorf("%w: reference symbol %d not available", ErrCorrupt, sym)
				}
			} else {
				sym = nearest(cand[:n], p.R)
				refs = append(refs, byte(sym))
			}
			settle(p, cand[sym])
		}
	}
	if decode {
		return refs[:refp], nil
	}
	return refs, nil
}

// nearest returns the symbol of the candidate whose radial value is nearest
// to r, the lowest on a tie.
func nearest(cand []int64, r int64) (sym int) {
	for s := 1; s < len(cand); s++ {
		if abs64(cand[s]-r) < abs64(cand[sym]-r) {
			sym = s
		}
	}
	return sym
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
