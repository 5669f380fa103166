package benchkit

import (
	"bytes"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/stream"
)

// TemporalRow is one frame of the stream-extension experiment.
type TemporalRow struct {
	Seq       int
	Predicted bool
	Bytes     int
	Ratio     float64
}

// TemporalResult compares per-frame (all-I) and temporal (I+P) stream
// compression of a static capture — the stream composition the paper's
// introduction anticipates.
type TemporalResult struct {
	Frames        []TemporalRow
	PlainBytes    int
	TemporalBytes int
	// Gain is PlainBytes / TemporalBytes.
	Gain float64
}

// Temporal runs the stream extension experiment: a static scene captured
// repeatedly, compressed with and without P-frame prediction.
func Temporal(kind lidar.SceneKind, frames int, q float64) (TemporalResult, error) {
	scene, err := lidar.NewScene(kind, 31)
	if err != nil {
		return TemporalResult{}, err
	}
	cfg := lidar.HDL64E()
	capture := make([]dbgc.PointCloud, frames)
	for i := range capture {
		capture[i] = cfg.Simulate(scene, int64(i+1))
	}

	write := func(interval int) (int, []TemporalRow, error) {
		var buf bytes.Buffer
		w, err := stream.NewWriter(&buf, dbgc.DefaultOptions(q), cfg.FramesPerSecond)
		if err != nil {
			return 0, nil, err
		}
		if interval >= 2 {
			if err := w.EnableTemporal(interval); err != nil {
				return 0, nil, err
			}
		}
		var rows []TemporalRow
		w.OnStats = func(fs stream.FrameStats) {
			rows = append(rows, TemporalRow{Seq: int(fs.Seq), Predicted: fs.Predicted, Bytes: fs.GeometryBytes, Ratio: fs.Ratio})
		}
		for _, pc := range capture {
			if err := w.WriteFrame(pc, nil); err != nil {
				return 0, nil, err
			}
		}
		if err := w.Close(); err != nil {
			return 0, nil, err
		}
		return buf.Len(), rows, nil
	}

	var res TemporalResult
	plain, _, err := write(0)
	if err != nil {
		return res, err
	}
	temporal, rows, err := write(frames)
	if err != nil {
		return res, err
	}
	res.Frames = rows
	res.PlainBytes = plain
	res.TemporalBytes = temporal
	if temporal > 0 {
		res.Gain = float64(plain) / float64(temporal)
	}
	return res, nil
}
