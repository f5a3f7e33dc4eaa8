package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// The closed loop counts refused (429) and server-error replies as
// failures, keeps them out of the latency samples, and never has more
// requests in flight than clients.
func TestClosedLoopCountsFailures(t *testing.T) {
	var n, inFlight, maxInFlight atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		switch n.Add(1) % 4 {
		case 1:
			http.Error(w, "slow down", http.StatusTooManyRequests)
		case 2:
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			fmt.Fprint(w, "ok")
		}
	}))
	defer srv.Close()

	const clients = 3
	c := newClient(clients)
	st := closedLoop(clients, 300*time.Millisecond, 0, func(i int) error {
		_, err := post(c, srv.URL, []byte("{}"))
		return err
	})
	total := st.completed + st.failed
	if int64(total) != n.Load() {
		t.Fatalf("counted %d requests, server saw %d", total, n.Load())
	}
	if total < 8 || st.rejected == 0 || st.failed <= st.rejected {
		t.Fatalf("completed %d, failed %d, rejected %d", st.completed, st.failed, st.rejected)
	}
	// Every fourth request (starting with the first) is a 429 and every
	// fourth (starting with the second) a 500.
	if want := (total + 3) / 4; st.rejected != want {
		t.Errorf("rejected %d of %d, want %d", st.rejected, total, want)
	}
	if want := (total+3)/4 + (total+2)/4; st.failed != want {
		t.Errorf("failed %d of %d, want %d", st.failed, total, want)
	}
	if len(st.latMS) != st.completed {
		t.Errorf("%d latency samples for %d successful requests", len(st.latMS), st.completed)
	}
	if maxInFlight.Load() > clients {
		t.Errorf("%d requests in flight with %d clients", maxInFlight.Load(), clients)
	}

	r := newRun("serve-check", 1)
	st.report(r)
	if r.Failed != st.failed || r.Attempted != total || !r.Correct {
		t.Errorf("report: attempted %d failed %d correct %v", r.Attempted, r.Failed, r.Correct)
	}
}
