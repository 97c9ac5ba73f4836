package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestParseConfigValidation is the table-driven contract for tmsim's
// flag validation: contradictory combinations are rejected with a clear
// error before any simulation runs.
func TestParseConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty means the args must parse
	}{
		{"defaults", nil, ""},
		{"sweep with outputs", []string{"-experiment", "fig5", "-scale", "small", "-metrics-out", "m.json"}, ""},
		{"traced cell", []string{"-trace-out", "t.json", "-trace-format", "chrome", "-trace-workload", "genome", "-trace-system", "ufo-hybrid", "-trace-threads", "2"}, ""},
		{"contention json", []string{"-contention-out", "c.json"}, ""},
		{"contention tuned", []string{"-contention-out", "c.html", "-report", "html", "-contention-topk", "4", "-timeseries-window", "5000"}, ""},
		{"contention with traced cell", []string{"-trace-out", "t.json", "-contention-out", "c.json"}, ""},
		{"profiles", []string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}, ""},

		{"unknown scale", []string{"-scale", "medium"}, "unknown scale"},
		{"unknown experiment", []string{"-experiment", "fig9"}, "unknown experiment"},
		{"negative seeds", []string{"-seeds", "-1"}, "-seeds"},
		{"negative parallel", []string{"-parallel", "-2"}, "-parallel"},
		{"positional junk", []string{"fig5"}, "unexpected arguments"},
		{"reference scheduler", []string{"-sched", "reference"}, ""},
		{"parallel scheduler removed", []string{"-sched", "parallel"}, "want fast or reference"},
		{"window-cycles removed", []string{"-window-cycles", "5"}, "flag provided but not defined: -window-cycles"},

		{"trace-format without trace-out", []string{"-trace-format", "chrome"}, "-trace-format requires -trace-out"},
		{"trace-workload without trace-out", []string{"-trace-workload", "genome"}, "-trace-workload requires -trace-out"},
		{"trace-system without trace-out", []string{"-trace-system", "tl2"}, "-trace-system requires -trace-out"},
		{"hybrid-norec traced cell", []string{"-trace-out", "t.json", "-trace-system", "hybrid-norec"}, ""},
		{"trace-threads without trace-out", []string{"-trace-threads", "2"}, "-trace-threads requires -trace-out"},
		{"trace-limit without trace-out", []string{"-trace-limit", "64"}, "-trace-limit requires -trace-out"},
		{"bad trace format", []string{"-trace-out", "t.json", "-trace-format", "xml"}, "unknown trace format"},
		{"unknown trace workload", []string{"-trace-out", "t.json", "-trace-workload", "nope"}, "unknown workload"},
		{"unknown trace system", []string{"-trace-out", "t.json", "-trace-system", "nope"}, "unknown system"},
		// A typo'd system name must list the valid names even when the
		// flag is otherwise inert (no -trace-out): never reach the
		// harness.build panic (PR-3 flag-validation contract).
		{"typo'd system without trace-out", []string{"-trace-system", "no-such-system"}, "unknown system \"no-such-system\""},
		{"typo'd system lists valid names", []string{"-trace-system", "ufo-hybird"}, "hybrid-norec"},
		{"bad trace threads", []string{"-trace-out", "t.json", "-trace-threads", "0"}, "-trace-threads"},
		{"bad trace limit", []string{"-trace-out", "t.json", "-trace-limit", "0"}, "-trace-limit"},

		{"oltp sweep", []string{"-experiment", "oltp", "-scale", "small", "-oltp-out", "o.json"}, ""},
		{"oltp tuned", []string{"-experiment", "oltp", "-oltp-arrival", "mmpp", "-oltp-theta", "1.2",
			"-oltp-read-pct", "50", "-oltp-rmw-pct", "45", "-oltp-scan-pct", "5"}, ""},
		{"oltp-out without oltp", []string{"-oltp-out", "o.json"}, "-oltp-out requires -experiment oltp"},
		{"oltp-arrival without oltp", []string{"-oltp-arrival", "mmpp"}, "-oltp-arrival requires -experiment oltp"},
		{"oltp-theta without oltp", []string{"-experiment", "fig5", "-oltp-theta", "0.5"}, "-oltp-theta requires -experiment oltp"},
		{"unknown arrival process", []string{"-experiment", "oltp", "-oltp-arrival", "uniform"}, "unknown arrival process"},
		{"negative theta", []string{"-experiment", "oltp", "-oltp-theta", "-0.1"}, "-oltp-theta"},
		{"pct out of range", []string{"-experiment", "oltp", "-oltp-read-pct", "120"}, "-oltp-read-pct"},
		{"mix does not sum", []string{"-experiment", "oltp", "-oltp-read-pct", "50", "-oltp-rmw-pct", "20", "-oltp-scan-pct", "5"}, "must sum to 100"},

		{"report without contention-out", []string{"-report", "html"}, "-report requires -contention-out"},
		{"topk without contention-out", []string{"-contention-topk", "4"}, "-contention-topk requires -contention-out"},
		{"window without contention-out", []string{"-timeseries-window", "1000"}, "-timeseries-window requires -contention-out"},
		{"bad report format", []string{"-contention-out", "c.json", "-report", "pdf"}, "unknown report format"},
		{"zero topk", []string{"-contention-out", "c.json", "-contention-topk", "0"}, "-contention-topk"},
		{"zero window with contention", []string{"-contention-out", "c.json", "-timeseries-window", "0"}, "-timeseries-window 0"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg, err := parseConfig(c.args, io.Discard)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("parseConfig(%v) = %v, want ok", c.args, err)
				}
				if cfg == nil {
					t.Fatal("no config returned")
				}
				return
			}
			if err == nil {
				t.Fatalf("parseConfig(%v) succeeded, want error containing %q", c.args, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestParseConfigDefaults: defaults land as documented.
func TestParseConfigDefaults(t *testing.T) {
	cfg, err := parseConfig(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.experiment != "all" || cfg.scaleName != "full" || cfg.seed != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.contentionTopK != 16 || cfg.timeseriesWindow != 100_000 || cfg.reportFormat != "json" {
		t.Fatalf("contention defaults = topk %d window %d report %q",
			cfg.contentionTopK, cfg.timeseriesWindow, cfg.reportFormat)
	}
	if len(cfg.set) != 0 {
		t.Fatalf("set = %v, want empty", cfg.set)
	}
}

// TestMain lets TestRejectedFlagsExitTwo re-run this test binary as tmsim
// itself: with TMSIM_RUN_MAIN set, the binary is main() and its
// arguments are the tmsim flags.
func TestMain(m *testing.M) {
	if os.Getenv("TMSIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"tmsim"}, strings.Fields(os.Getenv("TMSIM_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectedFlagsExitTwo pins the process-level contract for removed
// scheduler settings: the tmsim process exits 2 with a usable message
// before simulating anything.
func TestRejectedFlagsExitTwo(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-sched parallel", `unknown scheduler "parallel" (want fast or reference)`},
		{"-window-cycles 5", "flag provided but not defined: -window-cycles"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "TMSIM_RUN_MAIN=1", "TMSIM_ARGS="+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("tmsim %s: err = %v, want exit status 2", c.args, err)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("tmsim %s: stderr %q, want substring %q", c.args, stderr.String(), c.want)
		}
	}
}
