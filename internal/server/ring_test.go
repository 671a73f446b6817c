package server

import (
	"testing"

	"conscale/internal/des"
)

// TestRing drives the queue through scripted push/pop runs and checks
// FIFO order against a plain slice, the buffer size, and that popped
// slots are zeroed.
func TestRing(t *testing.T) {
	type step struct{ push, pop int }
	for _, tc := range []struct {
		name    string
		steps   []step
		wantCap int
	}{
		{"empty then one", []step{{1, 1}}, 8},
		{"fill exactly", []step{{8, 8}}, 8},
		{"wrap without growth", []step{{6, 6}, {6, 6}, {7, 7}}, 8},
		{"grow from zero offset", []step{{9, 0}, {0, 9}}, 16},
		{"grow while wrapped", []step{{6, 5}, {7, 0}, {1, 0}, {0, 9}}, 16},
		{"grow twice while wrapped", []step{{5, 3}, {14, 0}, {20, 36}}, 64},
		{"drain and reuse", []step{{8, 8}, {3, 3}, {8, 8}}, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r ring[*int]
			var model []*int
			next := 0
			for _, st := range tc.steps {
				for i := 0; i < st.push; i++ {
					v := new(int)
					*v = next
					next++
					r.push(v)
					model = append(model, v)
				}
				for i := 0; i < st.pop; i++ {
					got := r.pop()
					if got != model[0] {
						t.Fatalf("pop = %d, want %d", *got, *model[0])
					}
					model = model[1:]
				}
				if r.len() != len(model) {
					t.Fatalf("len = %d, want %d", r.len(), len(model))
				}
			}
			if len(r.buf) != tc.wantCap {
				t.Fatalf("buffer holds %d slots, want %d", len(r.buf), tc.wantCap)
			}
			live := 0
			for _, v := range r.buf {
				if v != nil {
					live++
				}
			}
			if live != r.len() {
				t.Fatalf("%d slots still hold a pointer with %d queued: popped slots must be zeroed", live, r.len())
			}
		})
	}
}

// TestKillDrainsAcceptQueue crashes a server whose accept ring has
// wrapped: every queued request fails, in queue order, on the next
// event, and the queue is left empty.
func TestKillDrainsAcceptQueue(t *testing.T) {
	eng := des.New()
	s := newTestServer(eng, Config{ThreadLimit: 1, AcceptQueue: 16})
	var failed []int
	submit := func(id int) {
		s.Submit(&Request{
			Phases: []Phase{{Kind: PhaseSleep, Duration: 1}},
			Done: func(ok bool) {
				if !ok {
					failed = append(failed, id)
				}
			},
		})
	}
	// Cycle six requests through first so the ring's head sits mid-buffer.
	for id := 0; id < 6; id++ {
		submit(id)
	}
	eng.RunUntil(5.5)
	for id := 6; id < 12; id++ {
		submit(id)
	}
	if s.QueueLen() != 6 {
		t.Fatalf("queue holds %d, want 6", s.QueueLen())
	}
	s.Kill()
	if s.QueueLen() != 0 {
		t.Fatalf("queue holds %d after Kill", s.QueueLen())
	}
	if len(failed) != 0 {
		t.Fatal("Kill completed requests reentrantly")
	}
	eng.Run()
	// 6..11 were queued (failed at the kill, in order); 5 held the thread
	// and fails at its next phase boundary.
	want := []int{6, 7, 8, 9, 10, 11, 5}
	if len(failed) != len(want) {
		t.Fatalf("failed = %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("failed = %v, want %v", failed, want)
		}
	}
}
