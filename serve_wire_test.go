package scanshare_test

import (
	"bytes"
	"encoding/json"
	"testing"

	scanshare "repro"
	"repro/wire"
)

// serveStatsJSON is a fully populated wire.ServeStats as the schema
// marshalled it when ServeRow and wire.ServeStats were still two types.
// `scanbench -json` files and /v1/statz bodies written since then must
// parse as, and marshal to, exactly these bytes.
const serveStatsJSON = `{"Rate":5,"MPL":8,"Policy":"PBM","Shards":8,"Devices":4,"IOSched":"elevator","Tier":"tiered-rr","Admission":"wfq","Completed":100,"Rejected":3,"TimedOut":2,"Cancelled":1,"ToPct":1.9,"CanPct":0.9,"Throughput":42.5,"P50ms":10,"P95ms":50,"P99ms":90,"QWaitP95ms":12.5,"SLOPct":97.5,"IOMB":123.4,"Selectivity":0.1,"SkipPct":88.8,"ReadMBps":456.7,"Seeks":9,"Skew":1.25,"Writes":7,"WrQps":3.5,"Checkpoints":2,"MergeP95ms":4.25,"TenantP95ms":[40,60],"TenantSLOPct":[99,95]}`

// TestServeRowWireCompat: the serve-table row is the wire type, it
// marshals byte-for-byte as the recorded JSON, and it round-trips into
// itself.
func TestServeRowWireCompat(t *testing.T) {
	var row scanshare.ServeRow = wire.ServeStats{
		Rate: 5, MPL: 8, Policy: "PBM", Shards: 8, Devices: 4,
		IOSched: "elevator", Tier: "tiered-rr", Admission: "wfq",
		Completed: 100, Rejected: 3, TimedOut: 2, Cancelled: 1,
		ToPct: 1.9, CanPct: 0.9, Throughput: 42.5,
		P50ms: 10, P95ms: 50, P99ms: 90, QWaitP95ms: 12.5, SLOPct: 97.5,
		IOMB: 123.4, Selectivity: 0.1, SkipPct: 88.8, ReadMBps: 456.7,
		Seeks: 9, Skew: 1.25, Writes: 7, WrQps: 3.5, Checkpoints: 2, MergeP95ms: 4.25,
		TenantP95ms: []float64{40, 60}, TenantSLOPct: []float64{99, 95},
	}
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != serveStatsJSON {
		t.Errorf("wire.ServeStats JSON drifted from the recorded schema:\n got: %s\nwant: %s", b, serveStatsJSON)
	}

	var back wire.ServeStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	c, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, c) {
		t.Errorf("wire.ServeStats does not round-trip:\n in: %s\nout: %s", b, c)
	}
}
