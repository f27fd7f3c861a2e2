package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// serverProc is one tsexplain-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	log    string
	exited chan struct{}
}

// startServer starts the server binary on a free loopback port over
// dataDir and waits until it answers. The server runs at GOMAXPROCS=2.
func startServer(bin, dataDir string, flags []string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logPath := dataDir + ".log"
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logf, logf
	childSysProc(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed server always exits with an error
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := probe.Get(s.base + "/api/datasets")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited during start-up:\n%s", s.logTail())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not ready after 30s:\n%s", s.logTail())
		}
	}
}

// stop kills the server and waits for it to exit.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Kill() // fails only when the server already exited
	<-s.exited
}

func (s *serverProc) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

func (s *serverProc) logTail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// newLoadClient returns the HTTP client all load goes through: at most
// two connections to the server, one per core of the reference box.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		},
	}
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, u, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// upload is a prepared dataset upload: a multipart body with the manifest
// part first and the CSV part second.
type upload struct {
	name  string
	ctype string
	body  []byte
}

func prepareUpload(df dataFile) (upload, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mf, err := mw.CreateFormField("manifest")
	if err != nil {
		return upload{}, err
	}
	if err := json.NewEncoder(mf).Encode(df.Manifest); err != nil {
		return upload{}, err
	}
	cf, err := mw.CreateFormFile("csv", "data.csv")
	if err != nil {
		return upload{}, err
	}
	data, err := os.ReadFile(df.CSV)
	if err != nil {
		return upload{}, err
	}
	if _, err := cf.Write(data); err != nil {
		return upload{}, err
	}
	if err := mw.Close(); err != nil {
		return upload{}, err
	}
	return upload{name: df.Manifest.Name, ctype: mw.FormDataContentType(), body: buf.Bytes()}, nil
}

// serveSetup is a serve workload's set-up, repeated w.setups times on
// fresh data directories: start the server, then upload every dataset
// with ?wait=1 so it is at rest with its snapshot written. The last
// server keeps running for the measured window.
func serveSetup(w *workload, p runParams, bin string, flags []string, ups []upload, c *http.Client) (*serverProc, []float64, error) {
	var setup []float64
	for i := 0; ; i++ {
		dataDir := filepath.Join(p.work, fmt.Sprintf("serve-%d", i))
		t0 := time.Now()
		srv, err := startServer(bin, dataDir, flags)
		if err != nil {
			return nil, nil, err
		}
		for _, up := range ups {
			code, body, err := do(c, "POST", srv.base+"/api/datasets?wait=1", up.ctype, up.body)
			if err == nil && code != http.StatusCreated {
				err = fmt.Errorf("status %d: %s", code, body)
			}
			if err != nil {
				srv.stop()
				return nil, nil, fmt.Errorf("uploading %s: %w", up.name, err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		if i == w.setups-1 {
			return srv, setup, nil
		}
		c.CloseIdleConnections()
		srv.stop()
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, nil, err
		}
	}
}

// scrape reads the server's /metrics into a map keyed by series (name
// plus labels, exactly as exposed).
func scrape(c *http.Client, base string) (map[string]float64, error) {
	code, body, err := do(c, "GET", base+"/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of a metric family (all label values); a name
// with labels selects that one series.
func family(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// gaugeSampler polls the server's gauges every 250 ms during a traced
// window, through the same two-connection client as the load.
type gaugeSampler struct {
	stop chan struct{}
	done chan struct{}
	// Written by the sampler goroutine only; read after done closes.
	n                               int
	poolMB, mappedMB, engines, qMax float64
	busySum                         float64
}

func startSampler(c *http.Client, base string) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			m, err := scrape(c, base)
			if err != nil {
				continue
			}
			g.n++
			g.poolMB = max(g.poolMB, family(m, "tsexplain_engine_pool_bytes")/1e6)
			g.mappedMB = max(g.mappedMB, family(m, "tsexplain_engine_pool_mapped_bytes")/1e6)
			g.engines = max(g.engines, family(m, "tsexplain_engine_pool_engines"))
			g.qMax = max(g.qMax, family(m, "tsexplain_queue_depth"))
			g.busySum += family(m, "tsexplain_workers_busy")
		}
	}()
	return g
}

// finish stops the sampler and waits for it.
func (g *gaugeSampler) finish() {
	close(g.stop)
	<-g.done
}

// serverLayers fills the per-layer metrics a serve workload reads from
// the server: /metrics deltas over the measured window and the sampled
// gauges.
func serverLayers(r *runResult, before, after map[string]float64, g *gaugeSampler) {
	delta := func(name string) float64 { return family(after, name) - family(before, name) }
	L := r.Layer
	for _, ep := range []struct{ name, pattern string }{
		{"explain", "/api/explain"},
		{"slice", "/api/slice"},
		{"diff", "/api/diff"},
		{"append", "POST /api/datasets/{name}/append"},
	} {
		sum := fmt.Sprintf("tsexplain_http_request_duration_seconds_sum{endpoint=%q}", ep.pattern)
		count := fmt.Sprintf("tsexplain_http_request_duration_seconds_count{endpoint=%q}", ep.pattern)
		if n := after[count] - before[count]; n > 0 {
			L["server.handler_ms."+ep.name] = 1000 * (after[sum] - before[sum]) / n
		}
	}
	hits, misses := delta("tsexplain_result_cache_hits_total"), delta("tsexplain_result_cache_misses_total")
	if hits+misses > 0 {
		L["server.result_cache_hit_share"] = hits / (hits + misses)
	}
	L["server.singleflight_dedups"] = delta("tsexplain_singleflight_dedup_total")
	L["server.engine_evictions"] = delta("tsexplain_engine_evictions_total")
	L["server.dataset_loads"] = delta("tsexplain_dataset_loads_total")
	for _, kind := range []string{"engine", "engine_mmap", "relation"} {
		L["server.engine_restores."+kind] = delta(fmt.Sprintf("tsexplain_snapshot_restores_total{kind=%q}", kind))
	}
	for _, reason := range []string{"queue_full", "deadline"} {
		for _, fam := range []string{"degraded", "shed"} {
			L["server."+fam+"."+reason] = delta(fmt.Sprintf("tsexplain_%s_total{reason=%q}", fam, reason))
		}
	}
	L["catalog.append_rows"] = delta("tsexplain_catalog_append_rows_total")
	if n := len(r.Samples["append"]); n > 0 {
		L["server.snapshot_saves_per_append"] = delta("tsexplain_snapshot_saves_total") / float64(n)
	}
	if g.n > 0 {
		L["server.engine_pool_mb"] = g.poolMB
		L["server.engine_pool_mapped_mb"] = g.mappedMB
		L["server.engines"] = g.engines
		L["server.queue_depth_max"] = g.qMax
		L["server.workers_busy_mean"] = g.busySum / float64(g.n)
	}
}

// clientLog is what one load-generating client observed.
type clientLog struct {
	runResult // samples, attempts and failures, merged into the run's
	start     time.Time
	done      []time.Duration // completion of each sample, since start
	explains  int             // explain requests answered 200
	degraded  int             // of which served by the degraded lane
	// computed holds the engine timings reported by explain answers that
	// were computed in the window; replays of a cached result repeat the
	// timings of their first computation and are dropped when merging.
	computed map[string]explainTimings
	tr       *tracer
}

type explainTimings struct{ cascading, segmentation float64 }

func newClientLog(workload string, start time.Time, trace bool) *clientLog {
	l := &clientLog{runResult: runResult{Samples: make(map[string][]float64)}, start: start,
		computed: make(map[string]explainTimings)}
	if trace {
		l.tr = &tracer{workload: workload, base: start}
	}
	return l
}

// timed sends one request of class and records its latency (send to last
// body byte) when it succeeds with 200; anything else is a failure.
func (l *clientLog) timed(c *http.Client, class, method, u, ctype string, body []byte) ([]byte, bool) {
	l.Attempted++
	t0 := time.Now()
	code, resp, err := do(c, method, u, ctype, body)
	d := time.Since(t0)
	if err != nil {
		l.fail("%s %s: %v", class, u, err)
		return nil, false
	}
	if code != http.StatusOK {
		l.fail("%s %s: status %d: %.200s", class, u, code, resp)
		return nil, false
	}
	l.Samples[class] = append(l.Samples[class], ms(d))
	l.done = append(l.done, time.Since(l.start))
	l.tr.record("client."+class, t0, d)
	return resp, true
}

// explainAnswer decodes an explain answer, counts degraded ones, keeps
// its reported engine timings when tracing, and checks it against the
// golden corpus when one is given.
func (l *clientLog) explainAnswer(key string, resp []byte, golden goldenSet, goldenName string, pos map[string]int) {
	l.explains++
	if golden == nil && l.tr == nil {
		if bytes.Contains(resp, []byte(`"degraded":true`)) {
			l.degraded++
		}
		return
	}
	t0 := time.Now()
	var b explainBody
	err := json.Unmarshal(resp, &b)
	if golden == nil {
		l.tr.overhead += time.Since(t0) // decoded for the trace alone
	}
	if err != nil {
		l.fail("explain %s: %v", key, err)
		return
	}
	if b.Degraded {
		l.degraded++
		return
	}
	if l.tr != nil {
		l.computed[fmt.Sprintf("%s|%g|%g", key, b.Latency.Cascading, b.Latency.Segmentation)] =
			explainTimings{b.Latency.Cascading, b.Latency.Segmentation}
	}
	if golden != nil {
		doc, err := goldenFromResponse(goldenName, &b, pos)
		if err == nil {
			err = golden.check(b.K, doc)
		}
		if err != nil {
			l.fail("explain %s: %v", key, err)
		}
	}
}

// merge folds the client logs of a window of r.WindowS seconds into r.
func merge(r *runResult, logs []*clientLog) {
	computed := make(map[string]explainTimings)
	var explains, degraded int
	perSecond := make([]float64, int(r.WindowS))
	for _, l := range logs {
		for c, xs := range l.Samples {
			r.Samples[c] = append(r.Samples[c], xs...)
		}
		r.Attempted += l.Attempted
		r.Failed += l.Failed
		r.Errors = append(r.Errors, l.Errors...)
		explains += l.explains
		degraded += l.degraded
		for _, d := range l.done {
			if i := int(d / time.Second); i < len(perSecond) {
				perSecond[i]++
			}
		}
		for k, v := range l.computed {
			computed[k] = v
		}
		if l.tr != nil {
			for _, s := range l.tr.spans {
				s.ID = len(r.Spans) + 1
				s.Op = s.ID
				r.Spans = append(r.Spans, s)
			}
		}
	}
	r.Rates = perSecond
	if len(perSecond) == 0 { // a window shorter than a second
		r.Rates = []float64{float64(r.ops()) / r.WindowS}
	}
	if explains > 0 {
		r.Layer["server.degraded_share"] = float64(degraded) / float64(explains)
	}
	if len(computed) > 0 {
		var cas, seg []float64
		for _, t := range computed {
			cas = append(cas, t.cascading)
			seg = append(seg, t.segmentation)
		}
		r.Layer["cascading.ms"] = median(cas)
		r.Layer["segment.ms"] = median(seg)
	}
}

// serveWindow runs a serve workload's measured window: load drives the
// server until deadline and returns what each client observed. It reads
// /metrics before and after, samples gauges in a traced run, and records
// the server's peak RSS.
func serveWindow(r *runResult, p runParams, c *http.Client, srv *serverProc, load func(start, deadline time.Time) []*clientLog) error {
	t0 := time.Now()
	before, err := scrape(c, srv.base)
	if err != nil {
		return err
	}
	scrapeCost := time.Since(t0)
	var g *gaugeSampler
	start := time.Now()
	if p.trace {
		g = startSampler(c, srv.base)
	}
	logs := load(start, start.Add(time.Duration(p.seconds*float64(time.Second))))
	r.WindowS = time.Since(start).Seconds()
	if g != nil {
		g.finish()
	}
	after, err := scrape(c, srv.base)
	if err != nil {
		return err
	}
	merge(r, logs)
	if p.trace {
		serverLayers(r, before, after, g)
		r.Layer["trace.overhead_pct"] = overheadPct(logs, g, scrapeCost, r.WindowS)
	}
	r.PeakRSSMB, err = peakRSSMB(srv.pid())
	return err
}

// printServeReport splits each request class's mean client latency into
// the server handler's mean time (from /metrics) and the rest: loopback
// transport plus the client itself.
func printServeReport(out io.Writer, workload string, r *runResult) {
	for _, c := range []struct{ class, endpoint string }{
		{"explain", "explain"}, {"slice", "slice"}, {"diff", "diff"}, {"append", "append"}, {"read", "explain"},
	} {
		xs := r.Samples[c.class]
		h, ok := r.Layer["server.handler_ms."+c.endpoint]
		if len(xs) == 0 || !ok {
			continue
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		fmt.Fprintf(out, "%s trace %s: client mean %.3f ms = server handler %.3f ms + transport and client %.3f ms\n",
			workload, c.class, mean, h, mean-h)
	}
}

// overheadPct is the tracing cost of a serve run over its window: the
// time clients spent recording spans and decoding answers only the trace
// reads, plus the connection time the gauge sampler's scrapes took from
// the load, each scrape costed at what one took on an idle connection.
func overheadPct(logs []*clientLog, g *gaugeSampler, scrapeCost time.Duration, window float64) float64 {
	d := time.Duration(g.n) * scrapeCost
	for _, l := range logs {
		if l.tr != nil {
			d += l.tr.overhead
		}
	}
	return 100 * d.Seconds() / window
}

func query(path string, kv ...string) string {
	v := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(kv[i], kv[i+1])
	}
	return path + "?" + v.Encode()
}
