package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMemoSingleflight: concurrent callers for one key run compute once
// and all read its value; exactly one of them reports computing it.
func TestMemoSingleflight(t *testing.T) {
	var m memo[int]
	var computes, fresh atomic.Int64
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprint(i), Run: func() {
			v, computed := m.get("k", func() int {
				computes.Add(1)
				runtime.Gosched()
				return 42
			})
			if v != 42 {
				t.Errorf("get = %d, want 42", v)
			}
			if computed {
				fresh.Add(1)
			}
		}}
	}
	if _, err := runJobs(context.Background(), "", jobs, 4, func() int64 { return 0 }, nil); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 || fresh.Load() != 1 {
		t.Fatalf("compute ran %d times, %d callers reported computing; want 1 and 1",
			computes.Load(), fresh.Load())
	}
}

// TestMemoPanicCommitsNothing: a panicking compute leaves the key
// unset, so the next caller computes it afresh.
func TestMemoPanicCommitsNothing(t *testing.T) {
	var m memo[int]
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the compute's panic", r)
			}
		}()
		m.get("k", func() int { panic("boom") })
	}()
	if v, computed := m.get("k", func() int { return 7 }); v != 7 || !computed {
		t.Fatalf("get after a panic = %d, computed %v; want 7, true", v, computed)
	}
	if v, computed := m.get("k", func() int { return 8 }); v != 7 || computed {
		t.Fatalf("second get = %d, computed %v; want the memoized 7", v, computed)
	}
}
