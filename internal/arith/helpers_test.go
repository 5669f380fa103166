package arith

import (
	"dbgc/internal/declimits"
)

// The tests' short spellings of the append pairs, and the shard framing
// around each of them as internal/streamcodec puts it.

func compressBytes(buf []byte) []byte { return AppendCompressCodes(nil, buf, 256) }

func decompressBytes(buf []byte, n int, b *declimits.Budget) ([]byte, error) {
	return AppendDecompressCodes(nil, buf, n, 256, b)
}

func compressInts(vs []int64) []byte { return AppendCompressInts(nil, vs) }

func decompressInts(buf []byte, n int, b *declimits.Budget) ([]int64, error) {
	return AppendDecompressInts(nil, buf, n, b)
}

func compressUints(vs []uint64) []byte { return AppendCompressUints(nil, vs) }

func decompressUints(buf []byte, n int, b *declimits.Budget) ([]uint64, error) {
	return AppendDecompressUints(nil, buf, n, b)
}

func appendSharded[T any](dst []byte, vs []T, shards int, appendPlain func(dst []byte, vs []T) []byte) []byte {
	return AppendSharded(dst, len(vs), shards, func(lo, hi int, out []byte) []byte {
		return appendPlain(out, vs[lo:hi])
	})
}

func decodeSharded[T any](buf []byte, n int, b *declimits.Budget, appendPlain func(dst []T, shard []byte, n int, b *declimits.Budget) ([]T, error)) ([]T, error) {
	if err := b.Nodes(int64(n)); err != nil {
		return nil, err
	}
	out := make([]T, n)
	err := DecodeSharded(buf, n, b, func(_ int, shard []byte, lo, hi int) error {
		_, err := appendPlain(out[lo:lo:hi], shard, hi-lo, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func appendCodesSharded(dst, codes []byte, alphabet, shards int) []byte {
	return appendSharded(dst, codes, shards, func(dst, vs []byte) []byte { return AppendCompressCodes(dst, vs, alphabet) })
}

func decodeCodesSharded(buf []byte, n, alphabet int, b *declimits.Budget) ([]byte, error) {
	return decodeSharded(buf, n, b, func(dst, shard []byte, n int, b *declimits.Budget) ([]byte, error) {
		return AppendDecompressCodes(dst, shard, n, alphabet, b)
	})
}

func appendUintsSharded(dst []byte, vs []uint64, shards int) []byte {
	return appendSharded(dst, vs, shards, AppendCompressUints)
}

func decodeUintsSharded(buf []byte, n int, b *declimits.Budget) ([]uint64, error) {
	return decodeSharded(buf, n, b, AppendDecompressUints)
}

func appendIntsSharded(dst []byte, vs []int64, shards int) []byte {
	return appendSharded(dst, vs, shards, AppendCompressInts)
}

func decodeIntsSharded(buf []byte, n int, b *declimits.Budget) ([]int64, error) {
	return decodeSharded(buf, n, b, AppendDecompressInts)
}
