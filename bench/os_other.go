//go:build !linux

package main

import (
	"os/exec"
	"time"
)

// Without /proc the CPU and memory metrics are omitted, never zero.

func procCPUSeconds(int) (float64, bool) { return 0, false }

func peakRSSMiB(int) (float64, bool) { return 0, false }

func hostStealSeconds() (float64, bool) { return 0, false }

func allowedCPUs() []int { return nil }

func startOnCPU(cmd *exec.Cmd, _ int) error { return cmd.Start() }

func sleepUntilDue(d time.Duration) { time.Sleep(d) }
