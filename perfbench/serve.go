package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bufferqoe"
)

// The serve-mixed fixture: every stored scenario x probe x buffer.
var (
	serveWorkloads = []string{"long-few", "long-many", "short-few", "short-many"}
	serveDirs      = []string{"up", "down"}
	serveProbes    = []string{"voip", "web", "video:SD"}
	paperBuffers   = []int{8, 16, 32, 64, 128, 256}
	warmupBuffers  = []int{9, 10, 11, 12, 13, 14, 15, 17}
)

// serveOpts are the server's run options (-seed/-duration/-warmup/
// -reps/-clip). They are fixed: the workload seed drives the request
// stream, not the simulation, so the fixture is the same every run.
var serveOpts = bufferqoe.Options{
	Seed: 42, Duration: 2 * time.Second, Warmup: time.Second, Reps: 1, ClipSeconds: 1,
}

const (
	serveClients = 2 // closed-loop client connections
	serveSetups  = 3 // server starts whose set-up time is measured
	// clientProcs caps the load generator's GOMAXPROCS during the loop,
	// so that it takes at most one of the two cores from the server.
	clientProcs = 1
)

func serveFlags(storeDir string) []string {
	return []string{
		"-serve", "127.0.0.1:0", "-store", storeDir, "-parallel", "2",
		"-seed", strconv.FormatUint(serveOpts.Seed, 10),
		"-duration", serveOpts.Duration.String(), "-warmup", serveOpts.Warmup.String(),
		"-reps", strconv.Itoa(serveOpts.Reps), "-clip", strconv.Itoa(serveOpts.ClipSeconds),
	}
}

func accessScenario(workload, dir string) bufferqoe.Scenario {
	return bufferqoe.Scenario{Network: bufferqoe.Access, Workload: workload, Direction: bufferqoe.Direction(dir)}
}

func probeOf(label string) bufferqoe.Probe {
	if m, prof, ok := strings.Cut(label, ":"); ok {
		return bufferqoe.Probe{Media: bufferqoe.Media(m), Profile: prof}
	}
	return bufferqoe.Probe{Media: bufferqoe.Media(label)}
}

func probesOf(labels []string) []bufferqoe.Probe {
	out := make([]bufferqoe.Probe, len(labels))
	for i, l := range labels {
		out[i] = probeOf(l)
	}
	return out
}

// cellKey addresses one stored cell.
type cellKey struct {
	scenario, probe string
	buffer          int
}

// fixture is the store the server answers reads from, and the values
// and recommendations computed into it.
type fixture struct {
	dir     string
	cells   map[cellKey]bufferqoe.SweepCell
	recs    map[string]*bufferqoe.Recommendation // by scenario label
	digest  string
	metrics bufferqoe.Metrics // telemetry of the cold build
}

// buildFixture computes the fixture grid into a fresh store in dir
// and the max-mos recommendation of every stored scenario.
func buildFixture(dir string) (*fixture, error) {
	s := bufferqoe.NewSession()
	s.SetParallelism(2)
	col := bufferqoe.NewCollector()
	s.SetCollector(col)
	if err := s.OpenStore(dir); err != nil {
		return nil, err
	}
	var scs []bufferqoe.Scenario
	for _, d := range serveDirs {
		for _, w := range serveWorkloads {
			scs = append(scs, accessScenario(w, d))
		}
	}
	g, err := s.Sweep(bufferqoe.Sweep{Scenarios: scs, Buffers: paperBuffers, Probes: probesOf(serveProbes)}, serveOpts)
	if err != nil {
		s.CloseStore()
		return nil, err
	}
	f := &fixture{dir: dir, cells: map[cellKey]bufferqoe.SweepCell{}, recs: map[string]*bufferqoe.Recommendation{}}
	for _, c := range g.Cells {
		f.cells[cellKey{c.Scenario, c.Probe, c.Buffer}] = c
	}
	f.digest = digestCells(g.Cells)
	for _, sc := range scs {
		rec, err := s.Recommend(context.Background(), recommendSpec(sc), serveOpts)
		if err != nil {
			s.CloseStore()
			return nil, err
		}
		f.recs[sc.Label()] = rec
	}
	f.metrics = col.Metrics()
	if err := s.CloseStore(); err != nil {
		return nil, err
	}
	return f, nil
}

func recommendSpec(sc bufferqoe.Scenario) bufferqoe.RecommendSpec {
	return bufferqoe.RecommendSpec{
		Scenario: sc, Probes: probesOf(serveProbes), Buffers: paperBuffers,
		Target: bufferqoe.MaxAggregateMOS, Threshold: 3.5,
	}
}

// Request kinds of the mix.
const (
	kindRead  = iota // /sweep of a stored 18-cell grid
	kindRec          // /recommend max-mos on a stored scenario
	kindWrite        // single-cell /sweep at a buffer not yet computed
)

var kindNames = [...]string{"http.read", "http.recommend", "http.write"}

// request is one generated request with what its answer must be.
type request struct {
	id    int
	kind  int
	path  string
	body  []byte
	q     serveQuery
	cells []cellKey // expected cells (reads) in grid order
}

// serveQuery is the request body (the qoebench -serve JSON schema).
type serveQuery struct {
	Workloads []string `json:"workloads"`
	Dir       string   `json:"dir"`
	Buffers   []int    `json:"buffers"`
	Probes    []string `json:"probes,omitempty"`
	Target    string   `json:"target,omitempty"`
}

// generator produces the seeded request stream: blocks of ten requests
// (six reads, three recommendations, one write) in seeded order, so
// the mix is exact at every block boundary. Writes cycle through every
// stored scenario x probe in seeded order; each pass of the cycle
// takes the next buffer of a seeded permutation of 18..512 (the
// stored and warm-up buffers excluded), so every write is a cell never
// computed before.
type generator struct {
	mu      sync.Mutex
	rng     *rand.Rand
	block   []int
	next    int
	combos  [][3]string
	buffers []int
	writes  int
}

func newGenerator(seed uint64) *generator {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
	for _, d := range serveDirs {
		for _, w := range serveWorkloads {
			for _, p := range serveProbes {
				g.combos = append(g.combos, [3]string{w, d, p})
			}
		}
	}
	g.rng.Shuffle(len(g.combos), func(i, j int) { g.combos[i], g.combos[j] = g.combos[j], g.combos[i] })
	used := map[int]bool{}
	for _, b := range append(append([]int(nil), paperBuffers...), warmupBuffers...) {
		used[b] = true
	}
	for b := 18; b <= 512; b++ {
		if !used[b] {
			g.buffers = append(g.buffers, b)
		}
	}
	g.rng.Shuffle(len(g.buffers), func(i, j int) { g.buffers[i], g.buffers[j] = g.buffers[j], g.buffers[i] })
	return g
}

func (g *generator) nextRequest() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		g.block = []int{kindRead, kindRead, kindRead, kindRead, kindRead, kindRead, kindRec, kindRec, kindRec, kindWrite}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	r := request{id: g.next + 1, kind: g.block[0]}
	g.block = g.block[1:]
	g.next++
	switch r.kind {
	case kindRead:
		d := serveDirs[g.rng.IntN(len(serveDirs))]
		wp := g.rng.Perm(len(serveWorkloads))[:2]
		bp := g.rng.Perm(len(paperBuffers))[:3]
		r.path = "/sweep"
		r.q = serveQuery{Dir: d}
		for _, i := range wp {
			r.q.Workloads = append(r.q.Workloads, serveWorkloads[i])
		}
		for _, i := range bp {
			r.q.Buffers = append(r.q.Buffers, paperBuffers[i])
		}
		for _, w := range r.q.Workloads {
			for _, p := range serveProbes {
				for _, b := range r.q.Buffers {
					r.cells = append(r.cells, cellKey{accessScenario(w, d).Label(), p, b})
				}
			}
		}
	case kindRec:
		r.path = "/recommend"
		r.q = serveQuery{
			Workloads: []string{serveWorkloads[g.rng.IntN(len(serveWorkloads))]},
			Dir:       serveDirs[g.rng.IntN(len(serveDirs))],
			Buffers:   paperBuffers,
			Target:    "max-mos",
		}
	case kindWrite:
		c := g.combos[g.writes%len(g.combos)]
		pass := g.writes / len(g.combos)
		if pass >= len(g.buffers) {
			panic("perfbench: serve-mixed ran out of fresh cells") // over 11000 writes in one run
		}
		r.path = "/sweep"
		r.q = serveQuery{Workloads: []string{c[0]}, Dir: c[1], Buffers: []int{g.buffers[pass]}, Probes: []string{c[2]}}
		g.writes++
	}
	r.body, _ = json.Marshal(r.q)
	return r
}

// server is one running qoebench -serve process.
type server struct {
	cmd     *exec.Cmd
	addr    string // service address
	metrics string // -metrics-addr address, when requested
	done    chan error
	log     *lockedBuffer
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startServer execs qoebench -serve on a store and returns once the
// server has printed its addresses and answers /healthz.
func startServer(bin, storeDir string, withMetrics bool) (*server, error) {
	args := serveFlags(storeDir)
	if withMetrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	// The server must not outlive the benchmark, even if the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1), log: &lockedBuffer{}}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrs := make(chan [2]string, 1)
	go func() {
		var a [2]string
		sent := false
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(s.log, line)
			if _, u, ok := strings.Cut(line, " on http://"); ok {
				if strings.Contains(line, "/sweep") {
					a[0] = u
				} else if strings.Contains(line, "/metrics") {
					a[1] = u
				}
			}
			if !sent && a[0] != "" && (a[1] != "" || !withMetrics) {
				addrs <- a
				sent = true
			}
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addrs:
		s.addr, s.metrics = a[0], a[1]
	case err := <-s.done:
		return nil, fmt.Errorf("qoebench -serve exited before serving: %v\n%s", err, s.log.String())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("qoebench -serve printed no address within 60s\n%s", s.log.String())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("qoebench -serve never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the server down with SIGINT (flushing its store) and
// waits for the process to exit; it kills it after 60s.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGINT); err != nil {
		s.kill()
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("qoebench -serve: %v\n%s", err, s.log.String())
		}
		return nil
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("qoebench -serve did not shut down within 60s")
	}
}

// kill ends the process and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// serveResponse mirrors the qoebench -serve response body.
type serveResponse struct {
	Sweep     *bufferqoe.Grid           `json:"sweep"`
	Recommend *bufferqoe.Recommendation `json:"recommend"`
}

// reply is one completed and checked request. Answers are checked as
// they arrive and their bodies dropped, so the load generator's heap
// (and its GC work, which would show in the latencies) stays small.
type reply struct {
	req     request
	start   time.Time
	latency time.Duration
	ok      bool                  // 200 with a parsable body
	recFrac float64               // recommendations: CellsEvaluated/GridCells
	written []bufferqoe.SweepCell // writes: the cell answered
}

// closedLoop drives the server with serveClients connections, each
// sending its next request only after the previous answer, until d
// has elapsed. Requests come from one shared seeded stream. It returns
// the replies, the problems found in the answers, and the loop's wall
// time.
func closedLoop(addr string, gen *generator, f *fixture, d time.Duration) ([]reply, []string, time.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientProcs))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var out []reply
	var problems []string
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []reply
			var bad []string
			for time.Now().Before(deadline) {
				r := reply{req: gen.nextRequest(), start: time.Now()}
				resp, err := client.Post("http://"+addr+r.req.path, "application/json", bytes.NewReader(r.req.body))
				var body []byte
				status := 0
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
				}
				r.latency = time.Since(r.start)
				var p []string
				r.ok, r.recFrac, r.written, p = checkReply(r.req, status, body, err, f)
				bad = append(bad, p...)
				mine = append(mine, r)
			}
			mu.Lock()
			out = append(out, mine...)
			problems = append(problems, bad...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, problems, time.Since(start)
}

// checkReply validates one answer. A transport error, a non-200
// status or an unparsable body is a failed request (ok false); a
// parsed answer that differs from the fixture is a problem that fails
// the run.
func checkReply(q request, status int, body []byte, err error, f *fixture) (ok bool, recFrac float64, written []bufferqoe.SweepCell, problems []string) {
	if err != nil || status != http.StatusOK {
		return false, 0, nil, nil
	}
	var resp serveResponse
	if json.Unmarshal(body, &resp) != nil {
		return false, 0, nil, nil
	}
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf("request %d: ", q.id)+fmt.Sprintf(format, args...))
	}
	switch q.kind {
	case kindRead:
		if resp.Sweep == nil || len(resp.Sweep.Cells) != len(q.cells) {
			bad("read answered %d cells, want %d", cellCount(resp.Sweep), len(q.cells))
			break
		}
		for i, c := range resp.Sweep.Cells {
			k := q.cells[i]
			if c.Scenario != k.scenario || c.Probe != k.probe || c.Buffer != k.buffer {
				bad("cell %d is %s/%s@%d, want %s/%s@%d", i, c.Scenario, c.Probe, c.Buffer, k.scenario, k.probe, k.buffer)
			} else if c != f.cells[k] {
				bad("%s/%s@%d differs from the stored cell", k.scenario, k.probe, k.buffer)
			}
		}
	case kindRec:
		sc := accessScenario(q.q.Workloads[0], q.q.Dir).Label()
		if resp.Recommend == nil || !sameRecommendation(resp.Recommend, f.recs[sc]) {
			bad("recommendation for %s differs from the in-process answer", sc)
			break
		}
		if resp.Recommend.GridCells > 0 {
			recFrac = float64(resp.Recommend.CellsEvaluated) / float64(resp.Recommend.GridCells)
		}
	case kindWrite:
		if resp.Sweep == nil || len(resp.Sweep.Cells) != 1 {
			bad("write answered %d cells, want 1", cellCount(resp.Sweep))
			break
		}
		c := resp.Sweep.Cells[0]
		if c.Buffer != q.q.Buffers[0] || c.Probe != q.q.Probes[0] {
			bad("write answered %s@%d", c.Probe, c.Buffer)
		}
		if msg := checkCell(c); msg != "" {
			bad("%s", msg)
		}
		written = resp.Sweep.Cells
	}
	return true, recFrac, written, problems
}

func cellCount(g *bufferqoe.Grid) int {
	if g == nil {
		return 0
	}
	return len(g.Cells)
}

func sameRecommendation(a, b *bufferqoe.Recommendation) bool {
	if a == nil || b == nil || a.Buffer != b.Buffer || a.Score != b.Score || a.Met != b.Met ||
		a.CellsEvaluated != b.CellsEvaluated || a.GridCells != b.GridCells || len(a.Cells) != len(b.Cells) {
		return false
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			return false
		}
	}
	return true
}

// serveSession is the shared state of a serve-mixed run.
type serveSession struct {
	cfg  config
	work string // scratch directory inside the checkout
	fix  *fixture
}

func newServeSession(cfg config, out io.Writer) (*serveSession, error) {
	if cfg.qoebench == "" {
		return nil, errors.New("serve-mixed needs -qoebench (the binary built from this tree)")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	fix, err := buildFixture(filepath.Join(work, "fixture"))
	if err != nil {
		os.RemoveAll(work)
		return nil, fmt.Errorf("fixture: %w", err)
	}
	fmt.Fprintf(out, "# fixture %d cells in %.2fs, digest %s\n", len(fix.cells), time.Since(t0).Seconds(), fix.digest)
	return &serveSession{cfg: cfg, work: work, fix: fix}, nil
}

func (ss *serveSession) close() { os.RemoveAll(ss.work) }

// start copies the fixture store, starts a server on the copy and
// sends the warm-up request; it returns the set-up time from exec to
// the end of the warm-up.
func (ss *serveSession) start(name string, withMetrics bool, res *result) (*server, time.Duration, error) {
	dir := filepath.Join(ss.work, name)
	if err := copyDir(ss.fix.dir, dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := startServer(ss.cfg.qoebench, dir, withMetrics)
	if err != nil {
		return nil, 0, err
	}
	body, _ := json.Marshal(serveQuery{Workloads: []string{"noBG"}, Dir: "down", Buffers: warmupBuffers, Probes: []string{"voip", "video:SD"}})
	resp, err := http.Post("http://"+srv.addr+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		srv.kill()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	setup := time.Since(t0)
	var r serveResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &r) != nil || r.Sweep == nil {
		srv.kill()
		return nil, 0, fmt.Errorf("warm-up answered %d: %s", resp.StatusCode, b)
	}
	for _, c := range r.Sweep.Cells {
		if msg := checkCell(c); msg != "" {
			res.fail("warm-up: %s", msg)
		}
	}
	return srv, setup, nil
}

// runServeMixed is the untraced run: several measured server starts,
// then the closed loop on the last one.
func runServeMixed(cfg config, out io.Writer) (*result, error) {
	if cfg.trace {
		return runServeTraced(cfg, out)
	}
	ss, err := newServeSession(cfg, out)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	res := newResult()
	checkDigest(res, "serve-mixed", defaultSeed, ss.fix.digest)

	speed := newSpeedMeter()
	var setups []float64
	var srv *server
	for i := 0; i < serveSetups; i++ {
		speed.pause()
		s, setup, err := ss.start(fmt.Sprintf("store-%d", i), false, res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if i < serveSetups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	gen := newGenerator(cfg.seed)
	window := time.Duration(cfg.seconds / serveWindows * float64(time.Second))
	var windows [][]reply
	var walls []time.Duration
	var samples []reply
	var problems []string
	for range serveWindows {
		speed.pause()
		w, p, wall := closedLoop(srv.addr, gen, ss.fix, window)
		windows, walls = append(windows, w), append(walls, wall)
		samples, problems = append(samples, w...), append(problems, p...)
	}
	rss, rssOK := peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if !rssOK {
		res.fail("cannot read VmHWM of the server")
	}
	lat := summarize(samples, problems, res)
	fmt.Fprintf(out, "# requests %d (reads %d, writes %d) in %d windows of %.2fs\n", len(samples), len(lat.reads), lat.writes, serveWindows, window.Seconds())
	res.set("setup_s", median(setups), "s")
	windowMetrics(res, windows, walls)
	res.set("peak_rss_mb", rss, "MiB")
	speed.toReference(res, out)
	return res, nil
}

// serveWindows is how many closed loops of equal length the run makes,
// each right after a speed probe; each end-to-end metric is the median
// of its per-window values, so a disturbance shorter than a window does
// not move it.
const serveWindows = 15

// windowMetrics reports the loop's rates and latencies as medians over
// the windows.
func windowMetrics(res *result, windows [][]reply, walls []time.Duration) {
	var cellRates, reqRates, p50s, p99s, readP99s, writeP50s []float64
	for i, samples := range windows {
		var all, reads, writes []float64
		for _, s := range samples {
			v := ms(s.latency)
			all = append(all, v)
			if s.req.kind == kindWrite {
				if s.ok {
					writes = append(writes, v)
				}
			} else {
				reads = append(reads, v)
			}
		}
		cellRates = append(cellRates, float64(len(writes))/walls[i].Seconds())
		reqRates = append(reqRates, float64(len(all))/walls[i].Seconds())
		p50s = append(p50s, median(all))
		p99s = append(p99s, quantile(all, 0.99))
		readP99s = append(readP99s, quantile(reads, 0.99))
		writeP50s = append(writeP50s, median(writes))
	}
	res.set("cells_per_s", median(cellRates), "cells/s")
	res.set("req_per_s", median(reqRates), "req/s")
	res.set("req_p50_ms", median(p50s), "ms")
	res.set("req_p99_ms", median(p99s), "ms")
	res.set("read_p99_ms", median(readP99s), "ms")
	res.set("write_p50_ms", median(writeP50s), "ms")
}

// tally summarizes a loop's checked replies: read and recommendation
// latencies (ms), write counts, and the share of the grid each
// recommendation evaluated. Failed requests and answer problems are
// recorded in res.
type tally struct {
	reads            []float64
	writes, writesOK int
	written          []bufferqoe.SweepCell // cells the completed writes answered
	recFrac          []float64
}

func summarize(samples []reply, problems []string, res *result) tally {
	var t tally
	res.Attempted += len(samples)
	res.problems = append(res.problems, problems...)
	for _, s := range samples {
		if !s.ok {
			res.Failed++
		}
		switch s.req.kind {
		case kindWrite:
			t.writes++
			if s.ok {
				t.writesOK++
				t.written = append(t.written, s.written...)
			}
		case kindRead:
			t.reads = append(t.reads, ms(s.latency))
		case kindRec:
			t.reads = append(t.reads, ms(s.latency))
			if s.ok {
				t.recFrac = append(t.recFrac, s.recFrac)
			}
		}
	}
	return t
}

// runServeTraced is the traced serve-mixed run: an untraced reference
// loop, a traced loop against a server with -metrics-addr (telemetry
// and a CPU profile), an in-process replay of the same reads on the
// facade, and the layer measurements.
func runServeTraced(cfg config, out io.Writer) (*result, error) {
	ss, err := newServeSession(cfg, out)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	res := newResult()
	checkDigest(res, "serve-mixed", defaultSeed, ss.fix.digest)
	loop := time.Duration(cfg.seconds / 2 * float64(time.Second))

	ref, _, err := ss.start("store-ref", false, res)
	if err != nil {
		return nil, err
	}
	refSamples, refProblems, refWall := closedLoop(ref.addr, newGenerator(cfg.seed), ss.fix, loop)
	if err := ref.stop(); err != nil {
		return nil, err
	}
	refLat := summarize(refSamples, refProblems, res)

	srv, _, err := ss.start("store-traced", true, res)
	if err != nil {
		return nil, err
	}
	profSeconds := max(1, int(loop.Seconds())-1)
	profc := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", srv.metrics, profSeconds))
		if err != nil {
			profc <- nil
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		profc <- b
	}()
	samples, problems, wall := closedLoop(srv.addr, newGenerator(cfg.seed), ss.fix, loop)
	prof := <-profc
	m, err := serverMetrics(srv.metrics)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	lat := summarize(samples, problems, res)

	tr := newTracer()
	for _, s := range samples {
		tr.add(kindNames[s.req.kind], 0, s.req.id, s.start, s.start.Add(s.latency))
	}
	engineMetrics(res, m, wall)
	res.set("experiments.build_s", m.PhaseSeconds["build"], "s")
	res.set("experiments.sim_s", m.PhaseSeconds["sim"], "s")
	res.set("trace_overhead_frac", (float64(len(refSamples))/refWall.Seconds())/(float64(len(samples))/wall.Seconds())-1, "fraction")
	res.set("store.hits", float64(m.StoreHits), "count")
	res.set("store.writes", float64(m.StoreWrites), "count")
	res.set("store.load_p95_s", m.StoreLoadP95Seconds, "s")
	res.set("recommend.cells_evaluated_frac", mean(lat.recFrac), "fraction")

	facadeUS, err := ss.facadeReplay(samples, tr, res)
	if err != nil {
		return nil, err
	}
	res.set("facade.read_us_p50", facadeUS, "us")
	res.set("serve.http_us_p50", median(refLat.reads)*1e3-facadeUS, "us")

	var cells []replayCell
	for _, d := range serveDirs {
		for _, w := range serveWorkloads {
			c, err := replayOf(accessScenario(w, d), 64, serveOpts)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	rroot := tr.begin("replay", 0, -1)
	rs, err := replay(cells, serveOpts.Seed, tr, rroot, -1)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	tr.end(rroot)
	replayMetrics(res, rs)

	sc, err := measureScoring(serveOpts.Seed, serveOpts.ClipSeconds, tr, 0, -2)
	if err != nil {
		return nil, err
	}
	speech, frames := scoringWork(lat.written, serveOpts.Reps, serveOpts.ClipSeconds)
	scoringMetrics(res, sc, speech, frames, m.WorkerBusySeconds)

	storeCopy := filepath.Join(ss.work, "store-layer")
	if err := copyDir(ss.fix.dir, storeCopy); err != nil {
		return nil, err
	}
	stt, err := measureStore(storeCopy, 200, tr, 0, -3)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	res.set("store.get_us_p50", stt.getP50, "us")
	res.set("store.get_us_p99", stt.getP99, "us")
	res.set("store.put_us_p50", stt.putP50, "us")

	shares, err := cpuShares(prof, cfg.outDir)
	if err != nil {
		return nil, fmt.Errorf("server cpu profile: %w", err)
	}
	setShares(res, shares)

	fm := ss.fix.metrics
	checkCounts(res, "serve-mixed", defaultSeed, pin{
		SimEvents: fm.SimEvents, Packets: rs.packets, Drops: rs.drops, Collisions: rs.collisions,
	})
	fmt.Fprintf(out, "# pin %s\n", mustJSON(pin{
		Digest: ss.fix.digest, SimEvents: fm.SimEvents, Packets: rs.packets, Drops: rs.drops, Collisions: rs.collisions,
	}))
	if err := finishSpans(tr, cfg, "serve-mixed", out); err != nil {
		return nil, err
	}
	return res, nil
}

// serverMetrics reads the server's collector snapshot from the "qoe"
// block of /debug/vars.
func serverMetrics(addr string) (bufferqoe.Metrics, error) {
	var v struct {
		QoE bufferqoe.Metrics `json:"qoe"`
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return v.QoE, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v.QoE, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.QoE, nil
}

// facadeReplay answers the traced loop's reads and recommendations
// in-process on a Session over a copy of the fixture store and returns
// their median latency in microseconds. Answers must match the
// fixture, as the server's did.
func (ss *serveSession) facadeReplay(samples []reply, tr *tracer, res *result) (float64, error) {
	dir := filepath.Join(ss.work, "store-facade")
	if err := copyDir(ss.fix.dir, dir); err != nil {
		return 0, err
	}
	s := bufferqoe.NewSession()
	s.SetParallelism(2)
	if err := s.OpenStore(dir); err != nil {
		return 0, err
	}
	defer s.CloseStore()
	var lat []float64
	for _, smp := range samples {
		q := smp.req.q
		switch smp.req.kind {
		case kindRead:
			var scs []bufferqoe.Scenario
			for _, w := range q.Workloads {
				scs = append(scs, accessScenario(w, q.Dir))
			}
			t := time.Now()
			g, err := s.Sweep(bufferqoe.Sweep{Scenarios: scs, Buffers: q.Buffers, Probes: probesOf(serveProbes)}, serveOpts)
			el := time.Since(t)
			if err != nil {
				return 0, err
			}
			tr.add("facade.read", 0, smp.req.id, t, t.Add(el))
			lat = append(lat, us(el))
			for i, c := range g.Cells {
				if c != ss.fix.cells[smp.req.cells[i]] {
					res.fail("facade replay of request %d: cell %d differs from the stored cell", smp.req.id, i)
				}
			}
		case kindRec:
			sc := accessScenario(q.Workloads[0], q.Dir)
			t := time.Now()
			rec, err := s.Recommend(context.Background(), recommendSpec(sc), serveOpts)
			el := time.Since(t)
			if err != nil {
				return 0, err
			}
			tr.add("facade.recommend", 0, smp.req.id, t, t.Add(el))
			lat = append(lat, us(el))
			if !sameRecommendation(rec, ss.fix.recs[sc.Label()]) {
				res.fail("facade replay of request %d: recommendation differs", smp.req.id)
			}
		}
	}
	if st := s.Stats(); st.Misses != 0 {
		res.fail("facade replay simulated %d cells; reads must all come from the store", st.Misses)
	}
	return median(lat), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
