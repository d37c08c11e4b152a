package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"ccdem/internal/fleet"
	"ccdem/internal/svc"
)

// daemon is an in-process campaign service on a loopback listener: a
// svc.Manager whose shards run in worker subprocesses (this binary
// re-entered with -shard-worker) and journal checkpoints to a state
// directory, served by svc.Handler.
type daemon struct {
	mgr      *svc.Manager
	srv      *http.Server
	served   chan error
	base     string
	client   *http.Client
	stateDir string
}

// startDaemon starts the service with its state directory under workDir.
func startDaemon(workDir string) (*daemon, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	stateDir, err := os.MkdirTemp(workDir, "svc-state-")
	if err != nil {
		return nil, err
	}
	store, err := svc.OpenStore(stateDir)
	if err != nil {
		os.RemoveAll(stateDir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(stateDir)
		return nil, err
	}
	d := &daemon{
		mgr: svc.NewManager(svc.Config{
			Runner: svc.ProcRunner{Exe: exe, Args: []string{shardWorkerFlag}},
			Store:  store,
		}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		// The timeout turns a hung job into an error well inside the
		// benchmark's run limit.
		client:   &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		stateDir: stateDir,
	}
	d.srv = &http.Server{Handler: svc.Handler(d.mgr)}
	go func() { d.served <- d.srv.Serve(ln) }()
	if err := d.get("/healthz", nil); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the service down, waits for its goroutines and worker
// processes, and removes the state directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.mgr.Shutdown(ctx)
	if e := d.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.served; e != http.ErrServerClosed && err == nil {
		err = e
	}
	d.client.CloseIdleConnections()
	if e := os.RemoveAll(d.stateDir); err == nil {
		err = e
	}
	return err
}

func (d *daemon) get(path string, out *[]byte) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	if out != nil {
		*out = body
	}
	return nil
}

// jobRun is one campaign's client-side view: wall time from submit to
// the fetched result, the submit round trip, the final progress snapshot
// and the result document.
type jobRun struct {
	wall, submit time.Duration
	final        svc.Progress
	result       []byte
}

// runJob submits spec, follows the job's watch stream to a terminal
// state and fetches the merged result. Spans go to l (nil: untraced).
func (d *daemon) runJob(spec svc.JobSpec, l *lane) (jobRun, error) {
	var jr jobRun
	doc, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	l.begin("svc.job")
	defer l.end()
	t0 := time.Now()
	l.begin("svc.submit")
	resp, err := d.client.Post(d.base+"/api/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		l.end()
		return jr, err
	}
	var p svc.Progress
	err = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	jr.submit = time.Since(t0)
	l.end()
	if err != nil {
		return jr, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return jr, fmt.Errorf("submit: %s", resp.Status)
	}
	l.begin("svc.watch")
	jr.final, err = d.watch(p.ID)
	l.end()
	if err != nil {
		return jr, err
	}
	if jr.final.State != svc.StateDone {
		return jr, fmt.Errorf("job %s ended %s: %s", p.ID, jr.final.State, jr.final.Error)
	}
	l.begin("svc.result")
	err = d.get("/api/jobs/"+p.ID+"/result", &jr.result)
	l.end()
	jr.wall = time.Since(t0)
	return jr, err
}

// watch reads the job's server-sent progress events until one is
// terminal.
func (d *daemon) watch(id string) (svc.Progress, error) {
	var p svc.Progress
	resp, err := d.client.Get(d.base + "/api/jobs/" + id + "/watch")
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("watch %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			return p, fmt.Errorf("watch %s: %w", id, err)
		}
		if p.State.Terminal() {
			return p, nil
		}
	}
	if err := sc.Err(); err != nil {
		return p, err
	}
	return p, fmt.Errorf("watch %s: stream ended in state %s", id, p.State)
}

// jobSpec wraps a cohort as a service job split into shards shards, each
// simulated by one device worker.
func jobSpec(c fleet.Cohort, shards int) (svc.JobSpec, error) {
	var doc bytes.Buffer
	if err := fleet.WriteSpec(&doc, c); err != nil {
		return svc.JobSpec{}, err
	}
	return svc.JobSpec{Spec: doc.Bytes(), Shards: shards, Workers: 1}, nil
}

// directResult runs the job's cohort in-process, streamed, and returns
// the result document the service must reproduce byte for byte.
func directResult(spec svc.JobSpec, workers int) ([]byte, error) {
	c, err := fleet.ReadSpec(bytes.NewReader(spec.Spec))
	if err != nil {
		return nil, err
	}
	c.Stream = true
	res, err := c.Run(context.Background(), fleet.Pool{Workers: workers})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := res.WriteJSON(&out, false); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
