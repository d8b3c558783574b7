package main

import (
	"testing"
	"time"
)

// Each gate's verdict, on a passing input and on the regression it was
// built to catch.

func TestFlatVerdict(t *testing.T) {
	for _, tc := range []struct {
		name         string
		small, large time.Duration
		pass         bool
	}{
		{"flat", 800 * time.Microsecond, 900 * time.Microsecond, true},
		{"at the ratio", 400 * time.Microsecond, 800 * time.Microsecond, true},
		{"small in absolute terms", 100 * time.Microsecond, 500 * time.Microsecond, true},
		{"grows with |D|", 400 * time.Microsecond, 2 * time.Millisecond, false},
		{"just over the ratio", 1 * time.Millisecond, 2001 * time.Microsecond, false},
	} {
		if err := flatVerdict(tc.small, tc.large); (err == nil) != tc.pass {
			t.Errorf("%s: flatVerdict(%s, %s) = %v, want pass=%v", tc.name, tc.small, tc.large, err, tc.pass)
		}
	}
}

func TestLiveVerdict(t *testing.T) {
	if err := liveVerdict(121, 3891); err != nil {
		t.Errorf("maintenance cheaper than re-execution: %v", err)
	}
	for _, reads := range [][2]int64{{3891, 3891}, {5000, 3891}} {
		if err := liveVerdict(reads[0], reads[1]); err == nil {
			t.Errorf("liveVerdict(%d, %d) passed; maintenance must read strictly less", reads[0], reads[1])
		}
	}
}

func TestReorderVerdict(t *testing.T) {
	queries := []string{"Q1", "Q2", "Q5"}
	analysis := []int64{100, 800, 200}
	for _, tc := range []struct {
		name string
		cost []int64
		pass bool
	}{
		{"one query improves", []int64{100, 150, 200}, true},
		{"all improve", []int64{90, 150, 120}, true},
		{"one query reads more", []int64{101, 150, 120}, false},
		{"no query improves", []int64{100, 800, 200}, false},
	} {
		if err := reorderVerdict(queries, analysis, tc.cost); (err == nil) != tc.pass {
			t.Errorf("%s: reorderVerdict(%v, %v) = %v, want pass=%v", tc.name, analysis, tc.cost, err, tc.pass)
		}
	}
}
