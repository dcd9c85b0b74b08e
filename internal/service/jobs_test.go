package service

import "testing"

// TestRetireReleasesEvictedJobs pins that the recent ring holds at most
// maxRecentJobs finished jobs *reachable*: an evicted job — and the inline
// result it carries — must not survive in the ring's backing array.
func TestRetireReleasesEvictedJobs(t *testing.T) {
	tab := newJobTable()
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
