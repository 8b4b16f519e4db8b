package server

import (
	"runtime"
	"testing"
)

// TestTerminalStateCarriesDone pins the invariant a following SSE stream
// relies on: job.next ends the stream when it finds the job terminal
// with no undelivered events, so the done event must already be in the
// log whenever the terminal state is visible. A follower polling the
// job while it finishes must therefore never see the state without done.
func TestTerminalStateCarriesDone(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the follower must poll on its own P while the job finishes")
	}
	s := &Server{}
	for i := 0; i < 100; i++ {
		j := newJob(JobSpec{Type: JobDifftest})
		j.status.State = StateRunning
		polling, seen := make(chan struct{}), make(chan string)
		go func() {
			close(polling)
			for {
				j.mu.Lock()
				terminal := j.status.State.Terminal()
				last := ""
				if n := len(j.events); n > 0 {
					last = j.events[n-1].Type
				}
				j.mu.Unlock()
				if terminal {
					seen <- last
					return
				}
			}
		}()
		<-polling
		s.finish(j, StateDone, "")
		if last := <-seen; last != EventDone {
			t.Fatalf("job %d: terminal state visible while the last event is %q, not done", i, last)
		}
	}
}
