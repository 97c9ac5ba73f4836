package oltp_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/oltp"
)

func testConfig() oltp.Config {
	return oltp.Config{
		Keys: 64, RequestsPerProc: 30, Theta: 0.9,
		ReadPct: 70, RMWPct: 25, ScanPct: 5,
		ScanLen: 4, MeanGap: 400, Arrival: oltp.ArrivalPoisson, Seed: 21,
	}
}

func testOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Params.MemBytes = 1 << 24
	opt.OTableRows = 1 << 13
	opt.TxStats = true
	return opt
}

// TestWorkloadAllSystems runs the service workload on every system
// (including the sequential and lock baselines AllSystems adds) and
// requires the exact end-state invariant to hold: every request commits
// exactly once, so record values are fully determined by the traces.
func TestWorkloadAllSystems(t *testing.T) {
	for _, sys := range harness.AllSystems {
		threads := 2
		if sys == harness.Sequential {
			threads = 1
		}
		res := harness.Run(sys, oltp.New(testConfig()), threads, testOptions())
		if res.Err != nil {
			t.Errorf("%s: %v", sys, res.Err)
			continue
		}
		if res.TxStats == nil {
			t.Fatalf("%s: no txstats report", sys)
		}
		wantReqs := uint64(threads * testConfig().RequestsPerProc)
		if res.TxStats.Requests != wantReqs {
			t.Errorf("%s: %d arrival-tagged commits, want %d", sys, res.TxStats.Requests, wantReqs)
		}
		if res.TxStats.ResponsePercentiles == nil {
			t.Errorf("%s: no response-time percentiles", sys)
		}
	}
}

// TestResponseAtLeastServiceLatency: response time includes queueing, so
// for every system the mean response (arrival to commit) must be at
// least the mean service latency (begin to commit).
func TestResponseAtLeastServiceLatency(t *testing.T) {
	cfg := testConfig()
	cfg.MeanGap = 50 // overload: the backlog grows, queueing dominates
	res := harness.Run(harness.TL2, oltp.New(cfg), 2, testOptions())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	ts := res.TxStats
	if ts.Response == nil || ts.Latency == nil || ts.Response.Count == 0 {
		t.Fatal("missing response/latency histograms")
	}
	meanResp := float64(ts.Response.Sum) / float64(ts.Response.Count)
	meanLat := float64(ts.Latency.Sum) / float64(ts.Latency.Count)
	if meanResp < meanLat {
		t.Fatalf("mean response %.0f < mean service latency %.0f; queueing lost", meanResp, meanLat)
	}
	if ts.QueueWait == nil || ts.QueueWait.Sum == 0 {
		t.Fatal("overloaded run recorded zero queueing delay")
	}
}

// TestRunDeterministicAcrossSchedulers: one oltp cell produces identical
// cycles, stats, and lifecycle reports under the fast and reference
// engine schedulers.
func TestRunDeterministicAcrossSchedulers(t *testing.T) {
	type outcome struct {
		cycles    uint64
		requests  uint64
		committed uint64
	}
	run := func(reference bool) outcome {
		opt := testOptions()
		opt.Params.ReferenceScheduler = reference
		res := harness.Run(harness.UFOHybrid, oltp.New(testConfig()), 2, opt)
		if res.Err != nil {
			t.Fatalf("reference=%v: %v", reference, res.Err)
		}
		return outcome{res.Cycles, res.TxStats.Requests, res.TxStats.Committed}
	}
	fast := run(false)
	if ref := run(true); ref != fast {
		t.Errorf("reference scheduler diverged: %+v vs %+v", ref, fast)
	}
}
