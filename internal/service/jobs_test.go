package service

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
)

// TestRetireReleasesEvictedJobs pins that the recent ring holds at most
// maxRecentJobs finished jobs *reachable*: an evicted job — and the inline
// result it carries — must not survive in the ring's backing array.
func TestRetireReleasesEvictedJobs(t *testing.T) {
	tab := newJobTable(telemetry.NewServiceStats())
	for i := 0; i < 3*maxRecentJobs+7; i++ {
		tab.retire(tab.create("fp"))
	}
	if len(tab.recent) != maxRecentJobs {
		t.Fatalf("recent ring holds %d jobs, want %d", len(tab.recent), maxRecentJobs)
	}
	if got := tab.recent[len(tab.recent)-1].id; tab.get(got) == nil || tab.get("j000001") != nil {
		t.Fatalf("ring lost its newest job %s or kept its oldest", got)
	}
	reachable := 0
	for _, j := range tab.recent[:cap(tab.recent)] {
		if j != nil {
			reachable++
		}
	}
	if reachable != maxRecentJobs {
		t.Fatalf("%d jobs reachable through the ring's backing array, want %d", reachable, maxRecentJobs)
	}
}

// TestRetireBoundsRetainedResultBytes retires jobs whose results range
// from empty to twice the byte budget and checks, after every retire,
// that the results the ring holds — summed over the ring and over its
// whole backing array — stay within the budget plus the newest result,
// that the newest job always keeps its result, that a dropped result
// leaves the job's status flagged, and that the gauge and the counter
// agree with the ring.
func TestRetireBoundsRetainedResultBytes(t *testing.T) {
	stats := telemetry.NewServiceStats()
	tab := newJobTable(stats)
	sizes := []int{0, 1 << 20, 300 << 10, 3 << 20, 64, 2 * maxRetainedResultBytes, 5 << 20, 0, 1 << 20}
	expired := 0
	for i := 0; i < 4*maxRecentJobs; i++ {
		j := tab.create("fp")
		var res []byte
		if n := sizes[i%len(sizes)]; n > 0 {
			res = make([]byte, n)
		}
		j.finish(StateDone, true, res, nil)
		tab.retire(j)

		newest := tab.recent[len(tab.recent)-1]
		if _, got := newest.reply(); len(got) != len(res) {
			t.Fatalf("retire %d: newest job holds %d result bytes, want its %d", i, len(got), len(res))
		}
		bound := int64(maxRetainedResultBytes + len(res))
		var inRing, inArray int64
		for k, jb := range tab.recent[:cap(tab.recent)] {
			if jb == nil {
				continue
			}
			st, got := jb.reply()
			if k < len(tab.recent) {
				inRing += int64(len(got))
				if st.ResultExpired && got != nil {
					t.Fatalf("retire %d: job %s is flagged expired but holds its result", i, jb.id)
				}
			}
			inArray += int64(len(got))
		}
		if inRing != tab.retained || inRing != stats.RetainedResultBytes.Load() {
			t.Fatalf("retire %d: ring holds %d result bytes, table counts %d, gauge reads %d",
				i, inRing, tab.retained, stats.RetainedResultBytes.Load())
		}
		if inArray > bound {
			t.Fatalf("retire %d: %d result bytes reachable through the ring, bound %d", i, inArray, bound)
		}
	}
	for _, jb := range tab.recent {
		if jb.status().ResultExpired {
			expired++
		}
	}
	if expired == 0 || stats.ResultsExpired.Load() < int64(expired) {
		t.Fatalf("%d ring jobs flagged expired, counter reads %d", expired, stats.ResultsExpired.Load())
	}
}

// TestSlowLogReleasesEvictedEntries pins the same reachability rule for
// the slow-job log: past maxSlowJobs, an evicted entry's trace must be
// collectable, not kept alive by the log's backing array.
func TestSlowLogReleasesEvictedEntries(t *testing.T) {
	const adds = 3*maxSlowJobs + 5
	var l slowLog
	var collected atomic.Int64
	for i := 0; i < adds; i++ {
		tr := &trace.Trace{Level: trace.LevelRows}
		runtime.SetFinalizer(tr, func(*trace.Trace) { collected.Add(1) })
		l.add(SlowJob{Status: JobStatus{ID: "j"}, Trace: tr})
	}
	if len(l.entries) != maxSlowJobs {
		t.Fatalf("slow log holds %d entries, want %d", len(l.entries), maxSlowJobs)
	}
	want := int64(adds - maxSlowJobs)
	for deadline := time.Now().Add(2 * time.Second); collected.Load() < want && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Fatalf("%d evicted slow-log traces collected, want %d", got, want)
	}
	runtime.KeepAlive(&l)
}
