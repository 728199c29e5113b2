// Package integration drives a real multi-process UniStore cluster:
// it builds the unistore daemon, launches N OS processes wired over
// loopback TCP, loads a workload through the line protocol, and
// asserts every query answers exactly what an in-process simnet
// cluster answers — including after one process is killed outright.
//
// The suite is opt-in: it execs the go toolchain and real processes,
// so plain `go test ./...` skips it. Enable with UNISTORE_INTEGRATION=1
// (the CI integration job does). UNISTORE_LOG_DIR redirects per-node
// stderr logs to a directory CI can upload on failure; UNISTORE_RACE=1
// builds the daemon with the race detector.
package integration

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"unistore/internal/core"
	"unistore/internal/workload"
)

func requireIntegration(t *testing.T) {
	t.Helper()
	if os.Getenv("UNISTORE_INTEGRATION") != "1" {
		t.Skip("set UNISTORE_INTEGRATION=1 to run the multi-process suite")
	}
}

// buildDaemon compiles cmd/unistore once per test process.
var buildOnce struct {
	sync.Once
	bin string
	err error
}

func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "unistore-bin")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "unistore")
		args := []string{"build"}
		if os.Getenv("UNISTORE_RACE") == "1" {
			args = append(args, "-race")
		}
		args = append(args, "-o", bin, "unistore/cmd/unistore")
		cmd := exec.Command("go", args...)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildOnce.err = fmt.Errorf("go build: %v\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

func repoRoot() string {
	wd, _ := os.Getwd()
	return filepath.Dir(wd) // integration/ sits directly under the root
}

func logDir(t *testing.T) string {
	if d := os.Getenv("UNISTORE_LOG_DIR"); d != "" {
		os.MkdirAll(d, 0o755)
		return d
	}
	return t.TempDir()
}

// daemon is one running node process plus its protocol client.
type daemon struct {
	proc int
	cmd  *exec.Cmd
	in   *bufio.Writer
	out  *bufio.Reader
	addr string
	// debugAddr is the resolved -debug HTTP address ("" unless the
	// cluster was started with debug endpoints).
	debugAddr string
	log       *os.File
	dead      bool
}

// command sends one protocol line and returns the status line.
func (d *daemon) command(line string) (string, error) {
	if _, err := d.in.WriteString(line + "\n"); err != nil {
		return "", err
	}
	if err := d.in.Flush(); err != nil {
		return "", err
	}
	resp, err := d.out.ReadString('\n')
	return strings.TrimSpace(resp), err
}

func (d *daemon) ping(t *testing.T) {
	t.Helper()
	if resp, err := d.command("PING"); err != nil || resp != "PONG" {
		t.Fatalf("proc %d: PING -> %q, %v", d.proc, resp, err)
	}
}

func (d *daemon) insert(t *testing.T, oid, attr, value string) {
	t.Helper()
	resp, err := d.command(fmt.Sprintf("INSERT %s %s %s", oid, attr, value))
	if err != nil || resp != "OK" {
		t.Fatalf("proc %d: INSERT %s %s -> %q, %v", d.proc, oid, attr, resp, err)
	}
}

func (d *daemon) barrier(t *testing.T) {
	t.Helper()
	resp, err := d.command("BARRIER")
	if err != nil || resp != "OK" {
		t.Fatalf("proc %d: BARRIER -> %q, %v", d.proc, resp, err)
	}
}

// query returns the result rows, sorted for order-independent
// comparison.
func (d *daemon) query(t *testing.T, vql string) []string {
	t.Helper()
	resp, err := d.command("QUERY " + vql)
	if err != nil {
		t.Fatalf("proc %d: QUERY: %v", d.proc, err)
	}
	var n int
	if _, err := fmt.Sscanf(resp, "OK %d", &n); err != nil {
		t.Fatalf("proc %d: QUERY %s -> %q", d.proc, vql, resp)
	}
	rows := make([]string, 0, n)
	for i := 0; i < n; i++ {
		row, err := d.out.ReadString('\n')
		if err != nil {
			t.Fatalf("proc %d: row %d/%d: %v", d.proc, i, n, err)
		}
		rows = append(rows, strings.TrimRight(row, "\n"))
	}
	if dot, err := d.out.ReadString('\n'); err != nil || strings.TrimSpace(dot) != "." {
		t.Fatalf("proc %d: missing terminator, got %q, %v", d.proc, dot, err)
	}
	sort.Strings(rows)
	return rows
}

// kill9 delivers SIGKILL — the churn case's unclean process death.
func (d *daemon) kill9(t *testing.T) {
	t.Helper()
	d.dead = true
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill proc %d: %v", d.proc, err)
	}
	d.cmd.Wait()
}

type clusterOpts struct {
	procs, partitions, replicas, page int
	seed                              int64
	// dataRoot, when set, gives every process a durable -data directory
	// (dataRoot/proc<N>) with the given -fsync policy, so a killed
	// process can be restarted onto its WAL.
	dataRoot string
	fsync    string
	// trace turns on distributed query tracing; debug gives every
	// process a -debug HTTP listener (resolved into daemon.debugAddr).
	trace bool
	debug bool
}

// daemonArgs builds the command line for one process. listen is the
// concrete address on a restart (the peers still hold routes to it);
// "127.0.0.1:0" on first launch.
func daemonArgs(o clusterOpts, pi int, listen, seedAddr string) []string {
	args := []string{
		"-listen", listen,
		"-peers", fmt.Sprint(o.partitions),
		"-replicas", fmt.Sprint(o.replicas),
		"-procs", fmt.Sprint(o.procs),
		"-proc", fmt.Sprint(pi),
		"-seed", fmt.Sprint(o.seed),
		"-page", fmt.Sprint(o.page),
	}
	if o.dataRoot != "" {
		args = append(args, "-data", filepath.Join(o.dataRoot, fmt.Sprintf("proc%d", pi)))
		if o.fsync != "" {
			args = append(args, "-fsync", o.fsync)
		}
	}
	if o.trace {
		args = append(args, "-trace")
	}
	if o.debug {
		args = append(args, "-debug", "127.0.0.1:0")
	}
	if seedAddr != "" {
		args = append(args, "-seeds", seedAddr)
	}
	return args
}

// startCluster launches the daemons and waits for every READY. All
// processes are cleaned up (SIGKILL if still alive) when the test ends.
func startCluster(t *testing.T, o clusterOpts) []*daemon {
	t.Helper()
	bin := daemonBinary(t)
	logs := logDir(t)
	daemons := make([]*daemon, 0, o.procs)
	t.Cleanup(func() {
		for _, d := range daemons {
			if !d.dead {
				d.cmd.Process.Signal(syscall.SIGTERM)
			}
		}
		for _, d := range daemons {
			if d.dead {
				continue
			}
			done := make(chan struct{})
			go func(d *daemon) { d.cmd.Wait(); close(done) }(d)
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				d.cmd.Process.Kill()
				d.cmd.Wait()
			}
		}
		for _, d := range daemons {
			d.log.Close()
		}
	})
	var seedAddr string
	for pi := 0; pi < o.procs; pi++ {
		var seeds string
		if pi > 0 {
			seeds = seedAddr
		}
		d := launchDaemon(t, bin, logs, pi,
			daemonArgs(o, pi, "127.0.0.1:0", seeds),
			fmt.Sprintf("%s-node%d.log", t.Name(), pi))
		daemons = append(daemons, d)
		if pi == 0 {
			seedAddr = d.addr
		}
	}
	for _, d := range daemons {
		d.expectLine(t, "READY ", 90*time.Second)
	}
	return daemons
}

// launchDaemon starts one node process and reads its ADDR line.
func launchDaemon(t *testing.T, bin, logs string, pi int, args []string, logName string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(filepath.Join(logs, logName))
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = logf
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		proc: pi, cmd: cmd,
		in:  bufio.NewWriter(stdin),
		out: bufio.NewReader(stdout),
		log: logf,
	}
	// The daemon prints its resolved address immediately; READY
	// follows only once the whole cluster has bootstrapped. With -debug
	// the resolved debug address comes between the two.
	line := d.expectLine(t, "ADDR ", 30*time.Second)
	d.addr = strings.TrimPrefix(line, "ADDR ")
	for _, a := range args {
		if a == "-debug" {
			line := d.expectLine(t, "DEBUG ", 30*time.Second)
			d.debugAddr = strings.TrimPrefix(line, "DEBUG ")
		}
	}
	return d
}

// restart relaunches a killed daemon on its ORIGINAL address (the
// survivors' routing tables still point there) with the same flags —
// including the same -data directory, so it recovers its WAL and
// rejoins. The daemon struct is updated in place: the cluster cleanup
// and any later commands address the new process.
func (d *daemon) restart(t *testing.T, o clusterOpts, seedAddr string) {
	t.Helper()
	if !d.dead {
		t.Fatal("restart of a live daemon")
	}
	bin := daemonBinary(t)
	logs := logDir(t)
	nd := launchDaemon(t, bin, logs, d.proc,
		daemonArgs(o, d.proc, d.addr, seedAddr),
		fmt.Sprintf("%s-node%d-restart.log", t.Name(), d.proc))
	nd.expectLine(t, "READY ", 90*time.Second)
	d.log.Close()
	d.cmd, d.in, d.out, d.log, d.addr, d.dead = nd.cmd, nd.in, nd.out, nd.log, nd.addr, false
}

// expectLine reads one stdout line with the given prefix, failing the
// test (and pointing at the node log) on mismatch or timeout.
func (d *daemon) expectLine(t *testing.T, prefix string, timeout time.Duration) string {
	t.Helper()
	ch := make(chan string, 1)
	go func() {
		line, err := d.out.ReadString('\n')
		if err != nil {
			close(ch)
			return
		}
		ch <- strings.TrimSpace(line)
	}()
	select {
	case line, ok := <-ch:
		if !ok || !strings.HasPrefix(line, prefix) {
			t.Fatalf("proc %d: expected %q line, got %q (log: %s)", d.proc, prefix, line, d.log.Name())
		}
		return line
	case <-time.After(timeout):
		t.Fatalf("proc %d: no %q line within %v (log: %s)", d.proc, prefix, timeout, d.log.Name())
		return ""
	}
}

// referenceRows answers the queries on an in-process simnet cluster
// loaded with the same triples — the ground truth the TCP cluster must
// match.
func referenceRows(t *testing.T, o clusterOpts, ds *workload.Dataset, queries []string) map[string][]string {
	t.Helper()
	ref := core.NewCluster(core.Config{
		Peers: o.partitions, Replicas: o.replicas, Seed: o.seed, PageSize: o.page,
	})
	ref.Insert(ds.Triples...)
	out := make(map[string][]string, len(queries))
	for _, q := range queries {
		res, err := ref.Query(q)
		if err != nil {
			t.Fatalf("reference %s: %v", q, err)
		}
		rows := make([]string, 0, len(res.Bindings))
		for _, row := range res.Rows() {
			rows = append(rows, strings.Join(row, "\t"))
		}
		sort.Strings(rows)
		out[q] = rows
	}
	return out
}

var equivalenceQueries = []string{
	`SELECT ?n WHERE {(?p,'name',?n)}`,
	`SELECT ?n,?a WHERE {(?p,'name',?n) (?p,'age',?a) FILTER ?a < 30}`,
	`SELECT ?n,?e WHERE {(?p,'age',?a) (?p,'name',?n) (?p,'email',?e) FILTER ?a >= 25 AND ?a < 45}`,
	`SELECT ?p WHERE {(?p,'age',?a) FILTER ?a >= 40}`,
	`SELECT count(?a) AS ?cnt WHERE {(?p,'age',?a)}`,
	`SELECT ?conf, count(*) AS ?cnt WHERE {(?u,'published_in',?conf)} GROUP BY ?conf`,
	`SELECT min(?a) AS ?lo, max(?a) AS ?hi, avg(?a) AS ?mean WHERE {(?p,'age',?a)}`,
}

func loadWorkload(t *testing.T, d *daemon, ds *workload.Dataset) {
	t.Helper()
	for _, tr := range ds.Triples {
		d.insert(t, tr.OID, tr.Attr, tr.Val.String())
	}
}

func barrierAll(t *testing.T, daemons []*daemon) {
	t.Helper()
	// Two rounds: the first drains each process's own queues; the
	// second covers frames that round one pushed across processes
	// (replica propagation is asynchronous to the insert acks).
	for round := 0; round < 2; round++ {
		for _, d := range daemons {
			if !d.dead {
				d.barrier(t)
			}
		}
	}
}

// TestClusterMatchesSimnet is the core equivalence suite: inserts and
// queries through real TCP daemons answer exactly as simnet does.
func TestClusterMatchesSimnet(t *testing.T) {
	requireIntegration(t)
	o := clusterOpts{procs: 3, partitions: 8, replicas: 2, page: 8, seed: 5}
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 30})
	want := referenceRows(t, o, ds, equivalenceQueries)

	daemons := startCluster(t, o)
	for _, d := range daemons {
		d.ping(t)
	}
	loadWorkload(t, daemons[0], ds)
	barrierAll(t, daemons)

	for _, q := range equivalenceQueries {
		for _, d := range daemons {
			got := d.query(t, q)
			if strings.Join(got, "\n") != strings.Join(want[q], "\n") {
				t.Errorf("proc %d: %s\nwant %d rows:\n%s\ngot %d rows:\n%s",
					d.proc, q, len(want[q]), strings.Join(want[q], "\n"),
					len(got), strings.Join(got, "\n"))
			}
		}
	}
}

// TestClusterSurvivesProcessKill is the churn case: after loading and
// converging, one process dies by SIGKILL — no drain, no goodbye — and
// the survivors must still answer every query exactly, via the replica
// failover path (each replica group straddles processes by placement).
func TestClusterSurvivesProcessKill(t *testing.T) {
	requireIntegration(t)
	o := clusterOpts{procs: 3, partitions: 8, replicas: 2, page: 8, seed: 5}
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 25})
	want := referenceRows(t, o, ds, equivalenceQueries)

	daemons := startCluster(t, o)
	loadWorkload(t, daemons[0], ds)
	barrierAll(t, daemons)

	daemons[2].kill9(t)

	for _, q := range equivalenceQueries {
		for _, d := range daemons[:2] {
			got := d.query(t, q)
			if strings.Join(got, "\n") != strings.Join(want[q], "\n") {
				t.Errorf("proc %d after kill: %s\nwant %d rows:\n%s\ngot %d rows:\n%s",
					d.proc, q, len(want[q]), strings.Join(want[q], "\n"),
					len(got), strings.Join(got, "\n"))
			}
		}
	}
}

// TestClusterRestartRecovery is the crash-recovery case end to end: a
// WAL-backed process dies by SIGKILL mid-bulk-insert, more writes land
// while it is down, and it restarts onto the SAME -data directory and
// -listen address. The restarted process must recover every write it
// acked from its WAL (the unclean death leaves no CLEAN marker, so
// this walks the torn-tail scan), rejoin its replica groups, catch up
// on the missed writes by digest delta, and then every process —
// including the restarted one — must answer every equivalence query
// exactly.
func TestClusterRestartRecovery(t *testing.T) {
	requireIntegration(t)
	// The WAL dirs live under the log dir: with UNISTORE_LOG_DIR set
	// (the CI job), a failing run uploads the daemon logs AND the WAL
	// state that produced the failure.
	dataRoot := filepath.Join(logDir(t), t.Name()+"-data")
	t.Cleanup(func() {
		if !t.Failed() && os.Getenv("UNISTORE_LOG_DIR") != "" {
			os.RemoveAll(dataRoot)
		}
	})
	o := clusterOpts{
		procs: 3, partitions: 8, replicas: 2, page: 8, seed: 5,
		dataRoot: dataRoot, fsync: "always",
	}
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 30})
	want := referenceRows(t, o, ds, equivalenceQueries)

	daemons := startCluster(t, o)
	half := len(ds.Triples) / 2
	for _, tr := range ds.Triples[:half] {
		daemons[0].insert(t, tr.OID, tr.Attr, tr.Val.String())
	}
	barrierAll(t, daemons)

	// SIGKILL: the victim's acked writes exist only in its WAL now.
	daemons[2].kill9(t)

	// The cluster keeps taking writes the dead process will have
	// missed. No barrier here: BARRIER spans all processes and cannot
	// complete with one dead — the acked inserts plus the post-restart
	// barrier cover convergence.
	for _, tr := range ds.Triples[half:] {
		daemons[0].insert(t, tr.OID, tr.Attr, tr.Val.String())
	}

	daemons[2].restart(t, o, daemons[0].addr)
	barrierAll(t, daemons)

	for _, q := range equivalenceQueries {
		for _, d := range daemons {
			got := d.query(t, q)
			if strings.Join(got, "\n") != strings.Join(want[q], "\n") {
				t.Errorf("proc %d after restart: %s\nwant %d rows:\n%s\ngot %d rows:\n%s",
					d.proc, q, len(want[q]), strings.Join(want[q], "\n"),
					len(got), strings.Join(got, "\n"))
			}
		}
	}
}

// TestClusterGracefulShutdown checks QUIT: a daemon drains and exits
// zero, and the remaining processes keep answering.
func TestClusterGracefulShutdown(t *testing.T) {
	requireIntegration(t)
	o := clusterOpts{procs: 2, partitions: 4, replicas: 2, page: 8, seed: 5}
	ds := workload.Generate(workload.Options{Seed: 42, Persons: 10})
	daemons := startCluster(t, o)
	loadWorkload(t, daemons[0], ds)
	barrierAll(t, daemons)

	if resp, err := daemons[1].command("QUIT"); err != nil || resp != "OK" {
		t.Fatalf("QUIT -> %q, %v", resp, err)
	}
	done := make(chan error, 1)
	go func() { done <- daemons[1].cmd.Wait() }()
	select {
	case err := <-done:
		daemons[1].dead = true
		if err != nil {
			t.Fatalf("daemon exited non-zero after QUIT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of QUIT")
	}
	got := daemons[0].query(t, `SELECT ?n WHERE {(?p,'name',?n)}`)
	if len(got) == 0 {
		t.Fatal("survivor returned no rows after peer shutdown")
	}
}
