package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
)

// peakRSS reads the process's peak resident set size since the last
// resetPeakRSS (VmHWM in /proc/self/status), in MiB. This is the
// kernel's own high-water mark of resident pages, so a spike between
// two reads is never missed.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:"))
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(rest, []byte("kB")))), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS sets the peak resident set size to the current one
// (Linux >= 4.0), so the next peakRSS covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// passPeakRSS returns the peak resident set size in MiB since the
// previous call (or the first reset) and starts a new interval.
func passPeakRSS() (float64, error) {
	peak, err := peakRSS()
	if err != nil {
		return 0, err
	}
	return peak, resetPeakRSS()
}
