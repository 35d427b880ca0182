package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseVmHWM(t *testing.T) {
	got, err := parseVmHWM(strings.NewReader("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n"))
	if err != nil || got != 20 {
		t.Fatalf("parseVmHWM = %v, %v; want 20", got, err)
	}
	for _, bad := range []string{"", "VmHWM:\t12 MB\n", "VmHWM:\tabc kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestProcReadersLive(t *testing.T) {
	rss, err := peakRSSMB()
	if err != nil || rss <= 0 {
		t.Fatalf("peakRSSMB = %v, %v", rss, err)
	}
	c0, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
		x++
	}
	c1, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= c0 {
		t.Fatalf("cpu time did not advance over a 20ms spin: %v -> %v (%d)", c0, c1, x)
	}
}
