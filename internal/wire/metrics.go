package wire

import "bqs/internal/obs"

// wireMetrics is the pre-resolved instrument set for one side of the
// protocol. Client and server register the same series distinguished by
// the side label, so a test process hosting both keeps the directions
// separate. All fields are nil without a registry; obs instruments are
// nil-safe, so call sites need no guards.
type wireMetrics struct {
	reg *obs.Registry

	framesIn    *obs.Counter   // bqs_wire_frames_total{side,dir="in"}
	framesOut   *obs.Counter   // bqs_wire_frames_total{side,dir="out"}
	bytesIn     *obs.Counter   // bqs_wire_bytes_total{side,dir="in"}
	bytesOut    *obs.Counter   // bqs_wire_bytes_total{side,dir="out"}
	batchOps    *obs.Histogram // bqs_wire_batch_ops{side}: items per batch frame
	flushFrames *obs.Histogram // bqs_wire_flush_frames{side}: frames carried per socket flush
	dialsOK     *obs.Counter   // bqs_wire_dials_total{result="ok"} (client side)
	dialsErr    *obs.Counter   // bqs_wire_dials_total{result="err"} (client side)
	wrongEpoch  *obs.Counter   // bqs_wire_wrong_epoch_total{side}: epoch-gated rejections
}

func newWireMetrics(reg *obs.Registry, side string) *wireMetrics {
	if reg == nil {
		return &wireMetrics{}
	}
	return &wireMetrics{
		reg:         reg,
		framesIn:    reg.Counter("bqs_wire_frames_total", "side", side, "dir", "in"),
		framesOut:   reg.Counter("bqs_wire_frames_total", "side", side, "dir", "out"),
		bytesIn:     reg.Counter("bqs_wire_bytes_total", "side", side, "dir", "in"),
		bytesOut:    reg.Counter("bqs_wire_bytes_total", "side", side, "dir", "out"),
		batchOps:    reg.Histogram("bqs_wire_batch_ops", obs.SizeBuckets, "side", side),
		flushFrames: reg.Histogram("bqs_wire_flush_frames", obs.SizeBuckets, "side", side),
		dialsOK:     reg.Counter("bqs_wire_dials_total", "result", "ok"),
		dialsErr:    reg.Counter("bqs_wire_dials_total", "result", "err"),
		wrongEpoch:  reg.Counter("bqs_wire_wrong_epoch_total", "side", side),
	}
}
