package strarena

import (
	"strings"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	var a Arena
	ss := []string{"", "x", "hello", strings.Repeat("q", 100)}
	got := make([]string, len(ss))
	for i, s := range ss {
		got[i] = a.Intern([]byte(s))
	}
	for i, s := range ss {
		if got[i] != s {
			t.Fatalf("Intern(%q) = %q", s, got[i])
		}
	}
}

func TestInternSurvivesLaterWrites(t *testing.T) {
	var a Arena
	first := a.Intern([]byte("stable"))
	// Fill well past several chunks; earlier strings must not change.
	pad := []byte(strings.Repeat("z", 1000))
	for range 1000 {
		a.Intern(pad)
	}
	if first != "stable" {
		t.Fatalf("early intern corrupted: %q", first)
	}
}

func TestInternHugeString(t *testing.T) {
	var a Arena
	big := strings.Repeat("ab", maxChunk) // 2 chunks worth
	s := a.Intern([]byte(big))
	if s != big {
		t.Fatal("huge intern mismatch")
	}
	if next := a.Intern([]byte("tail")); next != "tail" {
		t.Fatalf("intern after huge = %q", next)
	}
}

func TestChunkRollover(t *testing.T) {
	var a Arena
	var got []string
	var want []string
	for i := range 10000 {
		s := strings.Repeat(string(rune('a'+i%26)), i%37+1)
		want = append(want, s)
		got = append(got, a.Intern([]byte(s)))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intern %d corrupted: %q != %q", i, got[i], want[i])
		}
	}
}
