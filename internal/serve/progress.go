package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"timekeeping/pkg/api"
)

// defaultProgressInterval is the snapshot cadence when the client does not
// pass ?interval=.
const defaultProgressInterval = 150 * time.Millisecond

// handleProgress streams a job's progress as Server-Sent Events: one
// "data: {json}" frame per snapshot, ending with a Terminal frame carrying
// the job's final status. Snapshots are monotone in RefsDone. The stream
// also ends when the client disconnects.
//
// Jobs whose result comes from the shared cache (a "hit" or "joined"
// outcome) finish without intermediate snapshots — only the simulating
// job's Progress handle is wired into the engine. Their terminal
// frame still reports the run complete (RefsDone == RefsExpected, phase
// done): handleRun backfills the progress handle when the cache answers.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, unknownJob(r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, &api.Error{
			Code: api.CodeInternal, Message: "serve: response writer does not support streaming",
		})
		return
	}

	interval := defaultProgressInterval
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, &api.Error{
				Code: api.CodeBadRequest, Message: fmt.Sprintf("serve: bad interval %q: %v", q, err),
			})
			return
		}
		if d < 10*time.Millisecond {
			d = 10 * time.Millisecond
		}
		interval = d
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not batch frames
	w.WriteHeader(http.StatusOK)

	emit := func(terminal bool) bool {
		snap := s.mgr.snapshot(j)
		ev := api.ProgressEvent{
			JobID:    snap.ID,
			Status:   snap.Status,
			Terminal: terminal,
		}
		if snap.Progress != nil {
			ev.Progress = *snap.Progress
		}
		ps := j.prog.Snapshot()
		ev.ElapsedMS = float64(ps.Elapsed) / float64(time.Millisecond)
		blob, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", blob); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	if !emit(false) {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if !emit(false) {
				return
			}
		case <-j.done:
			emit(true)
			return
		case <-r.Context().Done():
			return
		}
	}
}
