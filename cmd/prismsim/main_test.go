package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The registry is the single source of truth for -exp: names must be
// unique and non-empty, every runner wired, and the usage string derived
// from it must list each one.
func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if e.name == "" {
			t.Error("registry entry with empty name")
		}
		if e.name == "all" {
			t.Error(`"all" is reserved for the whole registry and cannot name an entry`)
		}
		if seen[e.name] {
			t.Errorf("duplicate registry entry %q", e.name)
		}
		seen[e.name] = true
		if e.run == nil {
			t.Errorf("registry entry %q has no runner", e.name)
		}
	}
	if !seen["cluster"] {
		t.Error("registry is missing the cluster experiment")
	}

	usage := expNames()
	for _, e := range registry {
		if !strings.Contains(usage, e.name) {
			t.Errorf("usage string %q omits experiment %q", usage, e.name)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(registry) {
		t.Fatalf(`selectExperiments("all") = %d entries, err %v; want the full registry`, len(all), err)
	}

	one, err := selectExperiments("cluster")
	if err != nil || len(one) != 1 || one[0].name != "cluster" {
		t.Fatalf(`selectExperiments("cluster") = %v, err %v`, one, err)
	}

	if _, err := selectExperiments("fig99"); err == nil {
		t.Fatal("unknown experiment name accepted")
	} else if msg := err.Error(); !strings.Contains(msg, "fig99") || !strings.Contains(msg, "cluster") {
		t.Fatalf("error should name the bad input and list valid experiments, got: %v", msg)
	}
}

// TestMain lets a test re-run the real main in a child process: when
// PRISMSIM_TEST_ARGS is set, the test binary is prismsim with those
// arguments.
func TestMain(m *testing.M) {
	if args := os.Getenv("PRISMSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"prismsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wantExitTwo runs prismsim with args in a child process and requires
// exit status 2 with one "prismsim: " error line on stderr and no panic;
// it returns that line.
func wantExitTwo(t *testing.T, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PRISMSIM_TEST_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("prismsim %s: got %v, want exit status 2\nstderr: %s", args, err, stderr.String())
	}
	msg := stderr.String()
	if strings.Contains(msg, "panic:") || strings.Contains(msg, "goroutine") {
		t.Fatalf("prismsim %s panicked:\n%s", args, msg)
	}
	if lines := strings.Count(strings.TrimSpace(msg), "\n"); lines != 0 || !strings.HasPrefix(msg, "prismsim: ") {
		t.Fatalf("prismsim %s: want one prismsim: error line, got:\n%s", args, msg)
	}
	return msg
}

// TestInfeasibleClusterExitsTwo runs the real main in a child process on
// cluster shapes that cannot be built or recovered: too many containers
// for two hosts, and a one-host failover with no survivor to take the
// crashed host's containers. Each must exit 2 with a one-line error, the
// same contract as a rejected scenario file, and never panic.
func TestInfeasibleClusterExitsTwo(t *testing.T) {
	for _, args := range []string{
		"-exp cluster -hosts 2 -containers 1000 -duration 20ms -warmup 5ms",
		"-exp failover -hosts 1 -containers 10 -duration 20ms -warmup 5ms",
	} {
		wantExitTwo(t, args)
	}
}

// TestBadBurstExitsTwo: a background burst below one frame is rejected up
// front: such a flood would send nothing yet re-arm itself every
// nanosecond.
func TestBadBurstExitsTwo(t *testing.T) {
	for _, burst := range []string{"0", "-3"} {
		msg := wantExitTwo(t, "-exp fig3 -duration 20ms -warmup 2ms -burst "+burst)
		if !strings.Contains(msg, "-burst "+burst+": must be >= 1") {
			t.Errorf("-burst %s: error does not name the flag: %s", burst, msg)
		}
	}
}

// TestBadRatesExitTwo: a non-positive ping-pong rate has no request
// interval and a negative background rate no meaning; each is rejected up
// front with one line naming the flag instead of a scheduling panic or a
// silently idle run.
func TestBadRatesExitTwo(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-exp fig3 -high 0", "-high 0: must be > 0"},
		{"-exp fig9 -high -1", "-high -1: must be > 0"},
		{"-exp fig8 -load 0", "-load 0: must be > 0"},
		{"-exp fig8 -load -1", "-load -1: must be > 0"},
		{"-exp fig3 -bg -5", "-bg -5: must be >= 0"},
		{"-exp fig3 -high Inf", "-high +Inf: must be finite"},
	} {
		msg := wantExitTwo(t, c.args+" -duration 20ms -warmup 2ms")
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: error does not name the flag: %s", c.args, msg)
		}
	}
}
