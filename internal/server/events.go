package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"cogdiff/internal/telemetry"
)

// Event types on a job's SSE stream (GET /v1/jobs/{id}/events).
const (
	// EventUnitCompleted: a campaign (compiler, instruction) test unit
	// finished. Done/Total track campaign progress; Differences is the
	// unit's differing-path count.
	EventUnitCompleted = "unit-completed"
	// EventDifferenceFound: a unit (campaign) or deduplicated cause
	// (fuzz) produced differences.
	EventDifferenceFound = "difference-found"
	// EventProgress: a fuzz batch merged; Done/Total count executions,
	// Corpus the corpus size, Differences the cause count so far.
	EventProgress = "progress"
	// EventDone: terminal event; State holds the final job state. The
	// stream closes after it.
	EventDone = "done"
)

// Event is one entry in a job's event log. The wire form (the SSE data
// line) is JSON with empty fields omitted. Events deliberately carry no
// wall-clock data: for a fixed job spec at workers=1 the whole stream
// is deterministic, which the SSE tests byte-compare.
type Event struct {
	// ID is the 1-based position in the job's event log, assigned by
	// publish; it doubles as the SSE event id for Last-Event-ID resume.
	ID   int    `json:"id"`
	Type string `json:"type"`

	Compiler    string `json:"compiler,omitempty"`
	Instruction string `json:"instruction,omitempty"`
	Done        int    `json:"done,omitempty"`
	Total       int    `json:"total,omitempty"`
	Differences int    `json:"differences,omitempty"`
	Corpus      int    `json:"corpus,omitempty"`

	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// publish appends an event to the job's log and wakes every follower.
// The log is append-only, so followers replay from any index without
// missing or reordering events.
func (j *job) publish(ev Event) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
	j.cond.Broadcast()
}

// appendLocked appends an event to the log; j.mu must be held.
func (j *job) appendLocked(ev Event) {
	ev.ID = len(j.events) + 1
	j.events = append(j.events, ev)
}

// next blocks until the event log grows past from (returning the new
// events) or the job reaches a terminal state with nothing left to
// deliver (returning nil). stop unblocks waiters whose client went away.
func (j *job) next(from int, stop <-chan struct{}) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if from < len(j.events) {
			return append([]Event(nil), j.events[from:]...)
		}
		if j.status.State.Terminal() {
			return nil
		}
		select {
		case <-stop:
			return nil
		default:
		}
		j.cond.Wait()
	}
}

// handleEvents is GET /v1/jobs/{id}/events: an SSE stream that replays
// the job's event log from the start (or from ?from= / Last-Event-ID)
// and then follows it live until the done event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad from %q", v))
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			from = n
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	clients := s.reg.Gauge(telemetry.MetricServerSSEClients)
	clients.Add(1)
	defer clients.Add(-1)

	// Wake the cond loop when the client disconnects, so a follower of a
	// long-running job does not leak until the job's next event.
	ctx := r.Context()
	stopped := make(chan struct{})
	defer close(stopped)
	go func() {
		select {
		case <-ctx.Done():
			j.cond.Broadcast()
		case <-stopped:
		}
	}()

	for ctx.Err() == nil {
		batch := j.next(from, ctx.Done())
		if batch == nil {
			return
		}
		for _, ev := range batch {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data); err != nil {
				return
			}
			from = ev.ID
		}
		flusher.Flush()
	}
}
