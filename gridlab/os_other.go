//go:build !linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// The harness measures on Linux; elsewhere it only has to compile.

func daemonSysProcAttr() *syscall.SysProcAttr { return nil }

func procCPU(int) time.Duration { return 0 }

func fsType(string) string { return "unknown" }

func procPeakRSS(int) int64 { return 0 }

func pinToOneCPU() error { return nil }

func onlineCPUs() int { return runtime.NumCPU() }
