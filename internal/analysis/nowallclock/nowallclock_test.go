package nowallclock_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/nowallclock"
)

// TestNoWallClock checks the full rule table inside deterministic packages.
func TestNoWallClock(t *testing.T) {
	analysistest.RunFixtures(t, nowallclock.Analyzer, "testdata/deterministic")
}

// TestHostClock checks the host-clock reads everywhere else: confined to
// obs, waivable only in package main.
func TestHostClock(t *testing.T) {
	analysistest.RunFixtures(t, nowallclock.Analyzer, "testdata/hostclock")
}
