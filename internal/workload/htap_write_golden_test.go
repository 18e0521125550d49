package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// htapWriteFingerprint renders sim-mode serving runs WITH an update
// stream: a 30% write fraction and a checkpoint trigger of 8 pending
// operations, under PBM and CScan, each on a fresh clustered database
// (checkpoints advance the table version, so runs must not share one).
// A third, queued sesf run orders admission by the read and write cost
// estimates. Together they pin the whole write path — the update draws,
// pricing, apply, ticket resolution, the checkpoint trigger and the
// merge windows — with the reads that run beside it.
func htapWriteFingerprint() string {
	var b strings.Builder
	run := func(name string, cfg ServeConfig) {
		res := RunServe(freshClusteredTinyDB(), cfg)
		fmt.Fprintf(&b, "htap-write/%s sched=%s writes=%d ckpts=%d mergeP95=%v io=%d skip=%d/%d\n",
			name, schedStr(res.Sched), res.Sched.WriteCompleted,
			res.Checkpoints, res.MergeP95, res.TotalIOBytes,
			res.SkippedTuples, res.RequestedTuples)
	}
	for _, pol := range []Policy{PBM, CScan} {
		run(pol.String(), htapServeConfig(pol))
	}
	sesf := htapServeConfig(PBM)
	sesf.AdmissionPolicy = "sesf"
	sesf.ArrivalRate = 500
	sesf.MPL = 2
	run("sesf-queued", sesf)
	return b.String()
}

// TestHTAPWriteGoldenUnchanged pins the sim-mode write path bit for bit.
// The file was recorded before RunServe became a client loop over
// ServeEngine. Regenerate with `go test -run HTAPWriteGolden -update`
// ONLY for an intentional semantic change to the simulation.
func TestHTAPWriteGoldenUnchanged(t *testing.T) {
	path := filepath.Join("testdata", "htap_write_golden.txt")
	got := htapWriteFingerprint()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("write-path output diverged from the recorded golden\n--- want\n%s--- got\n%s", want, got)
	}
}
