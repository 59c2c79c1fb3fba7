package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// childArgs names the environment variable that makes the test binary run
// as drmserve itself, with the variable's value as its command line.
const childArgs = "DRMSERVE_ARGS"

func TestMain(m *testing.M) {
	if argv, ok := os.LookupEnv(childArgs); ok {
		os.Args = append([]string{"drmserve"}, strings.Fields(argv)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child is one drmserve role running as a child process.
type child struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	// lines carries the role's stdout, a line at a time; lines a slow
	// reader has not taken are dropped once 256 wait.
	lines chan string
	done  chan struct{} // closed at stdout's end
}

// startChild runs drmserve with argv and returns once it prints the line
// naming the address it serves on, and that address.
func startChild(t *testing.T, argv string) (*child, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: exec.Command(exe), lines: make(chan string, 256), done: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), childArgs+"="+argv)
	c.cmd.Stderr = &c.stderr
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.stop)
	go func() {
		defer close(c.done)
		for sc := bufio.NewScanner(out); sc.Scan(); {
			select {
			case c.lines <- sc.Text():
			default:
			}
		}
	}()
	line := c.await(t, "serving")
	return c, line[strings.LastIndex(line, " ")+1:]
}

// await returns the role's next stdout line containing substr.
func (c *child) await(t *testing.T, substr string) string {
	t.Helper()
	timeout := time.After(60 * time.Second)
	for {
		select {
		case line := <-c.lines:
			if strings.Contains(line, substr) {
				return line
			}
		case <-c.done:
			t.Fatalf("%v exited before printing %q: %s", c.cmd.Env[len(c.cmd.Env)-1], substr, c.stderr.String())
		case <-timeout:
			t.Fatalf("%v printed no %q in 60s", c.cmd.Env[len(c.cmd.Env)-1], substr)
		}
	}
}

// peakRSS reads the role's high-water resident set (VmHWM) in bytes.
func (c *child) peakRSS(t *testing.T) int64 {
	t.Helper()
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatalf("no VmHWM line in /proc/%d/status", c.cmd.Process.Pid)
	return 0
}

// stop kills the role and waits for it; a second stop is a no-op.
func (c *child) stop() {
	if c.cmd.ProcessState == nil {
		c.cmd.Process.Kill()
		<-c.done
		c.cmd.Wait()
	}
}

// TestRolesHoldOnlyWhatTheyServe runs the roles of a DRM1 deployment on a
// 4-shard load-balanced plan as child processes, drives requests through
// the main and reads each role's peak resident set. The main holds the
// dense nets and no table, so it peaks within 64 MiB of their bytes;
// shard 1 holds its own tables only, so it peaks within 64 MiB of its
// shard's bytes. So does a DRM3 role on a 4-shard NSBP plan whose shard
// is one row-part of the dominating table: it draws its part alone, not
// the table the part is of. A second main then publishes identity
// deltas, and the scores it gives after two publishes equal the first
// main's, byte for byte: the rows a main draws from the model's seed are
// the rows the shards serve. (Shard peaks are read before any publish: a
// publish stages a heap clone of every table it touches.)
func TestRolesHoldOnlyWhatTheyServe(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/<pid>/status to read a peak resident set from")
	}
	const deploy = "-model DRM1 -strategy load-bal -shards 4 -listen 127.0.0.1:0"
	cfg, err := parse(args("-role main " + deploy))
	if err != nil {
		t.Fatal(err)
	}
	var peers []string
	var shard1 *child
	for s := 1; s <= cfg.plan.NumShards; s++ {
		role, addr := startChild(t, fmt.Sprintf("-role sparse -shard %d %s", s, deploy))
		peers = append(peers, core.ServiceName(s)+"="+addr)
		if s == 1 {
			shard1 = role
		}
	}
	mainArgs := "-role main " + deploy + " -peers " + strings.Join(peers, ",")
	reqs := workload.NewGenerator(cfg.model, 3).GenerateBatch(20)
	score := func(addr string) [][]float32 {
		client, err := rpc.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		scores, res := serve.NewReplayer(client).RunSerialScored(reqs)
		if res.Failed() > 0 {
			t.Fatal(res.Errors[0])
		}
		return scores
	}

	dense := model.BuildServed(cfg.model, false, true).DenseBytes()
	shard := sharding.ShardCapacityBytes(&cfg.model, &cfg.plan.Shards[0])
	// bound fails a role whose peak resident set exceeds what it serves by
	// over 64 MiB. Under -race it only logs: a DRM1 main read 81 MiB.
	bound := func(what string, role *child, serves int64) {
		peak := role.peakRSS(t)
		t.Logf("%s VmHWM %.1f MiB, serving %.1f MiB", what, float64(peak)/(1<<20), float64(serves)/(1<<20))
		if peak > serves+64<<20 && !raceEnabled {
			t.Errorf("%s peaked at %d bytes, over the %d bytes it serves + 64 MiB", what, peak, serves)
		}
	}

	mainRole, addr := startChild(t, mainArgs)
	want := score(addr)
	bound("main (dense nets)", mainRole, dense)
	bound("sparse1 (its shard)", shard1, shard)
	mainRole.stop()

	const part = "-role sparse -shard 2 -model DRM3 -strategy NSBP -shards 4 -listen 127.0.0.1:0"
	partCfg, err := parse(args(part))
	if err != nil {
		t.Fatal(err)
	}
	partRole, _ := startChild(t, part)
	bound("DRM3 NSBP sparse2 (a row-part)", partRole, sharding.ShardCapacityBytes(&partCfg.model, &partCfg.plan.Shards[1]))
	partRole.stop()

	publisher, addr := startChild(t, mainArgs+" -publish-every 100ms")
	publisher.await(t, "publish v2")
	got := score(addr)
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("request %d item %d scores %v after identity publishes, %v before", i, j, got[i][j], want[i][j])
			}
		}
	}
	bound("publishing main (dense nets)", publisher, dense)
}
