package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"timekeeping/internal/events"
	"timekeeping/internal/obs"
	"timekeeping/internal/telemetry"
	"timekeeping/pkg/api"
)

// ErrQueueFull is returned when the bounded job queue cannot accept
// another submission.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned for submissions after shutdown has begun.
var ErrDraining = errors.New("serve: shutting down")

// maxFinishedJobs bounds the job table: past it, the job that finished
// longest ago is dropped and its ID answers not_found. A finished run job
// holds about 9 KB; queued and running jobs are never dropped.
const maxFinishedJobs = 4096

// job is the manager's mutable record behind an api.JobView snapshot. All
// snap fields are guarded by manager.mu; prog is internally atomic.
type job struct {
	snap   api.JobView
	prog   *obs.Progress
	events *events.Sink // immutable after submit; nil unless capture was requested
	// trace is the request's distributed span timeline (nil when tracing
	// is disabled); rid the correlating request ID, forwarded on proxy
	// hops. Both immutable after submit.
	trace  *telemetry.Trace
	rid    string
	seq    int // submission order, for listing
	ctx    context.Context
	cancel context.CancelFunc
	run    func(ctx context.Context, j *job) error
	done   chan struct{}
}

// manager owns the bounded queue, the worker pool and the job table.
type manager struct {
	queue chan *job

	baseCtx    context.Context // parent of async job contexts
	baseCancel context.CancelFunc
	workers    sync.WaitGroup

	// reg receives the per-job progress gauges while a job lives and the
	// job wall-time histogram. Registry mutations happen outside mu (the
	// registry has its own lock; keeping the two disjoint avoids imposing
	// a lock order on render-time func gauges).
	reg  *obs.Registry
	wall *obs.Histogram
	log  *slog.Logger
	// srv points back at the owning server for the telemetry hooks
	// (queue-wait stage attribution, slow-request logging). Nil in tests
	// that drive the manager bare.
	srv *Server

	mu       sync.Mutex
	jobs     map[string]*job
	seq      int
	draining bool
	// finished holds terminal jobs' IDs in completion order; past
	// maxFinished (maxFinishedJobs outside tests) the oldest leaves jobs.
	finished    []string
	maxFinished int

	queued, running           int
	nDone, nFailed, nCanceled uint64
}

func newManager(workers, depth int, reg *obs.Registry, log *slog.Logger, srv *Server) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &manager{
		queue:       make(chan *job, depth),
		baseCtx:     ctx,
		baseCancel:  cancel,
		reg:         reg,
		wall:        reg.Histogram("tkserve_job_wall_seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60, 600}),
		log:         log,
		srv:         srv,
		jobs:        make(map[string]*job),
		maxFinished: maxFinishedJobs,
	}
	for i := 0; i < workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

// submit registers and enqueues a job whose work is fn. parent is the
// context the job's own context derives from: the HTTP request context
// for synchronous jobs, nil for async jobs (detached; cancelled via
// cancelJob or shutdown). sink, when non-nil, is the job's event capture;
// tr, when non-nil, is the request's trace (the job records queue-wait
// and work-stage spans into it); rid correlates the job with its request
// log lines and proxy hops.
func (m *manager) submit(kind, target string, parent context.Context, sink *events.Sink, tr *telemetry.Trace, rid string, fn func(context.Context, *job) error) (*job, error) {
	if parent == nil {
		parent = m.baseCtx
	}
	ctx, cancel := context.WithCancel(parent)
	j := &job{
		prog:   new(obs.Progress),
		events: sink,
		trace:  tr,
		rid:    rid,
		ctx:    ctx,
		cancel: cancel,
		run:    fn,
		done:   make(chan struct{}),
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	m.seq++
	j.seq = m.seq
	j.snap = api.JobView{
		ID:          fmt.Sprintf("j%d", m.seq),
		Kind:        kind,
		Target:      target,
		Status:      api.StatusQueued,
		SubmittedAt: time.Now(),
	}
	// Live progress gauges, readable on /metrics while the job runs. They
	// must be registered before the job is visible to a worker, or a fast
	// job could finish (and unregister) before registration. Taking the
	// registry lock under mu is safe: rendering snapshots the registry
	// first and calls these funcs with no registry lock held.
	prog := j.prog
	m.reg.Func(jobGaugeName("refs_done", j.snap), func() float64 { return float64(prog.Done()) })
	m.reg.Func(jobGaugeName("refs_expected", j.snap), func() float64 { return float64(prog.Expected()) })
	select {
	case m.queue <- j:
	default:
		// Unregister under mu too: after seq--, the next submit reuses
		// this ID and must not have its fresh gauges swept away.
		m.reg.Unregister(jobGaugeName("refs_done", j.snap))
		m.reg.Unregister(jobGaugeName("refs_expected", j.snap))
		m.seq--
		m.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
	m.jobs[j.snap.ID] = j
	m.queued++
	m.mu.Unlock()
	m.log.Info("job queued", "job_id", j.snap.ID, "kind", kind, "target", target, "events", sink != nil)
	return j, nil
}

// jobGaugeName renders a per-job metric name with id/target labels.
func jobGaugeName(field string, snap api.JobView) string {
	return fmt.Sprintf("tkserve_job_%s{id=%q,target=%q}", field, snap.ID, snap.Target)
}

func (m *manager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		m.mu.Lock()
		m.queued--
		m.running++
		now := time.Now()
		j.snap.Status = api.StatusRunning
		j.snap.StartedAt = &now
		submitted := j.snap.SubmittedAt
		m.mu.Unlock()
		j.trace.Span("queue_wait", submitted, now)
		if m.srv != nil {
			m.srv.observeStage(stageQueueWait, now.Sub(submitted))
		}
		m.log.Info("job started", "job_id", j.snap.ID, "kind", j.snap.Kind, "target", j.snap.Target)

		err := m.exec(j)
		j.cancel()

		m.mu.Lock()
		m.running--
		fin := time.Now()
		j.snap.FinishedAt = &fin
		j.snap.WallMS = float64(fin.Sub(*j.snap.StartedAt)) / float64(time.Millisecond)
		switch {
		case err == nil:
			j.snap.Status = api.StatusDone
			m.nDone++
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			j.snap.Status = api.StatusCanceled
			j.snap.Error = err.Error()
			m.nCanceled++
		default:
			j.snap.Status = api.StatusFailed
			j.snap.Error = err.Error()
			m.nFailed++
		}
		m.finished = append(m.finished, j.snap.ID)
		if len(m.finished) > m.maxFinished {
			delete(m.jobs, m.finished[0])
			m.finished = m.finished[1:]
		}
		snap := j.snap
		m.mu.Unlock()

		if err == nil {
			j.prog.SetPhase(obs.PhaseDone)
		}
		if err != nil {
			m.log.Warn("job finished", "job_id", snap.ID, "status", string(snap.Status), "wall_ms", snap.WallMS, "error", snap.Error)
		} else {
			m.log.Info("job finished", "job_id", snap.ID, "status", string(snap.Status), "wall_ms", snap.WallMS)
		}
		m.wall.Observe(snap.WallMS / 1000)
		if m.srv != nil {
			m.srv.maybeLogSlow(j, snap, fin.Sub(snap.SubmittedAt))
		}
		// The live gauges end with the run; history stays in the job table
		// until maxFinished later jobs have finished.
		m.reg.Unregister(jobGaugeName("refs_done", snap))
		m.reg.Unregister(jobGaugeName("refs_expected", snap))
		close(j.done)
	}
}

// exec runs a job's work function, converting panics (the experiments
// runner panics on cancellation mid-figure) into job errors so one bad
// job cannot take the service down.
func (m *manager) exec(j *job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if pe, ok := p.(error); ok {
				err = pe
			} else {
				err = fmt.Errorf("serve: job panic: %v", p)
			}
		}
	}()
	return j.run(j.ctx, j)
}

// update mutates a job's snapshot under the manager lock.
func (m *manager) update(j *job, fn func(*api.JobView)) {
	m.mu.Lock()
	fn(&j.snap)
	m.mu.Unlock()
}

// lookup returns the live job record for id.
func (m *manager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// snapshot returns a copy of the job's snapshot with the live progress
// attached.
func (m *manager) snapshot(j *job) api.JobView {
	m.mu.Lock()
	snap := j.snap
	m.mu.Unlock()
	ps := j.prog.Snapshot()
	snap.Progress = &api.Progress{
		Phase:        ps.Phase.String(),
		RefsDone:     ps.Done,
		RefsExpected: ps.Expected,
		RefsPerSec:   ps.RefsPerSec,
	}
	if j.trace != nil {
		snap.TraceID = j.trace.TraceID()
		// Only a caller that joined the trace merges its spans (a proxy
		// hop sends its traceparent); anyone else reads /trace.
		if j.trace.Joined() {
			snap.Trace = traceView(j)
		}
	}
	return snap
}

// get returns a snapshot of the job with the given ID.
func (m *manager) get(id string) (api.JobView, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return api.JobView{}, false
	}
	return m.snapshot(j), true
}

// list returns snapshots of every job in the table, in submission order.
func (m *manager) list() []api.JobView {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]api.JobView, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, m.snapshot(j))
	}
	return out
}

// cancelJob cancels the job's context; a queued or running job then
// finishes as canceled.
func (m *manager) cancelJob(id string) (api.JobView, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return api.JobView{}, false
	}
	j.cancel()
	return m.snapshot(j), true
}

// counters returns the queue gauges and lifecycle totals.
func (m *manager) counters() (queued, running int, done, failed, canceled uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.running, m.nDone, m.nFailed, m.nCanceled
}

// shutdown stops intake and drains the queue: already-submitted jobs keep
// running. If ctx expires first, every remaining job is cancelled and
// shutdown waits for the workers to observe that, then returns ctx's
// error.
func (m *manager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	if !already {
		close(m.queue)
	}
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		m.mu.Lock()
		for _, j := range m.jobs {
			j.cancel()
		}
		m.mu.Unlock()
		<-drained
		return ctx.Err()
	}
}
