package chaos

import (
	"flag"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/ralab/are/internal/chaostest"
)

var (
	chaosSeed = flag.Uint64("chaos.seed", 42, "seed for the chaos action script (same seed = same script)")
	chaosLong = flag.Bool("chaos.long", false, "run the deep soak instead of skipping it")
	artifacts = flag.String("chaos.artifacts", "", "directory for traces and process logs (empty = temp dir)")
)

func runChaos(t *testing.T, cfg chaostest.Config) *chaostest.Report {
	t.Helper()
	if *artifacts != "" {
		cfg.ArtifactDir = *artifacts
	}
	rep, err := chaostest.Run(cfg, t.Logf)
	if rep != nil {
		t.Logf("chaos report: submitted=%d done=%d failed=%d cancelled=%d rejected=%d lost-to-restart=%d lost-to-kill=%d kills=%d coord-restarts=%d settles=%d verified=%d/%d (single/dist)",
			rep.Submitted, rep.Done, rep.Failed, rep.Cancelled, rep.Rejected,
			rep.LostToRestart, rep.LostToKill, rep.WorkerKills, rep.CoordinatorRestarts,
			rep.SettlesPassed, rep.VerifiedSingleNode, rep.VerifiedDist)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosSmoke is the CI gate: one seeded run at the default shape —
// at least two worker kills and one coordinator restart are guaranteed
// by the script, and every completed job must match the oracle
// bitwise, single-node and distributed alike, while no job is lost or
// double-completed.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke spawns a process cluster; skipped in -short")
	}
	rep := runChaos(t, chaostest.DefaultConfig(*chaosSeed))
	if rep.WorkerKills < 2 {
		t.Errorf("smoke killed %d workers, want >= 2", rep.WorkerKills)
	}
	if rep.CoordinatorRestarts < 1 {
		t.Errorf("smoke restarted the coordinator %d times, want >= 1", rep.CoordinatorRestarts)
	}
	if got := rep.VerifiedSingleNode + rep.VerifiedDist; got != rep.Done {
		t.Errorf("%d jobs done but only %d verified against the oracle", rep.Done, got)
	}
	if rep.VerifiedDist == 0 {
		t.Error("no distributed job survived to verification; the run exercised nothing end-to-end")
	}
}

// TestChaosDurableSmoke is the durable-coordinator gate: the same
// seeded storm with -data-dir on, where the lost-to-restart allowance
// is withdrawn. Every coordinator kill -9 must recover the full job
// table — done jobs byte-stable, open jobs re-run under their original
// IDs — and the harness fails any job that disappears.
func TestChaosDurableSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke spawns a process cluster; skipped in -short")
	}
	rep := runChaos(t, chaostest.DurableConfig(*chaosSeed))
	if rep.CoordinatorRestarts < 1 {
		t.Errorf("durable smoke restarted the coordinator %d times, want >= 1", rep.CoordinatorRestarts)
	}
	if rep.LostToRestart != 0 {
		t.Errorf("durable mode lost %d jobs to coordinator restarts, want 0", rep.LostToRestart)
	}
	if got := rep.VerifiedSingleNode + rep.VerifiedDist; got != rep.Done {
		t.Errorf("%d jobs done but only %d verified against the oracle", rep.Done, got)
	}
	if rep.VerifiedDist == 0 {
		t.Error("no distributed job survived to verification; the run exercised nothing end-to-end")
	}
}

// TestChaosLong is the on-demand soak (-chaos.long): the same harness
// at several times the action count, fault floors and corpus size.
func TestChaosLong(t *testing.T) {
	if !*chaosLong {
		t.Skip("deep soak runs only with -chaos.long")
	}
	rep := runChaos(t, chaostest.LongConfig(*chaosSeed))
	if got := rep.VerifiedSingleNode + rep.VerifiedDist; got != rep.Done {
		t.Errorf("%d jobs done but only %d verified against the oracle", rep.Done, got)
	}
}

// TestAredPortCollision pins the fail-fast startup contract at the
// binary level: ared pointed at a port that is already bound must exit
// non-zero with an error naming the address — never daemonize silently.
// Covers both the API listener and -debug-addr.
func TestAredPortCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the ared binary; skipped in -short")
	}
	bin, err := chaostest.BuildAred("")
	if err != nil {
		t.Fatal(err)
	}
	squatter, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	taken := squatter.Addr().String()

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"api-port", []string{"-addr", taken}},
		{"debug-port", []string{"-addr", "127.0.0.1:0", "-debug-addr", taken}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			out, err := cmd.CombinedOutput()
			if err == nil {
				cmd.Process.Kill()
				t.Fatalf("ared %s stayed up with %s already bound\noutput: %s", tc.name, taken, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("ared did not run: %v", err)
			}
			if code := ee.ExitCode(); code == 0 {
				t.Fatalf("ared exited zero despite the bound port")
			}
			if !strings.Contains(string(out), taken) {
				t.Fatalf("ared's error does not name the contested address %s:\n%s", taken, out)
			}
		})
	}
}

// TestAredCleanSigterm pins the other half of the process contract the
// chaos teardown relies on: a healthy ared exits zero on SIGTERM.
func TestAredCleanSigterm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the ared binary; skipped in -short")
	}
	bin, err := chaostest.BuildAred("")
	if err != nil {
		t.Fatal(err)
	}
	p, err := chaostest.StartProc(bin, t.TempDir(), "sigterm-probe", "-addr", "127.0.0.1:0", "-grace", "2s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.WaitReady(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(15 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(m.Run())
}
