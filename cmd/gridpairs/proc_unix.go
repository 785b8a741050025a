//go:build unix

package main

import (
	"os/exec"
	"syscall"
)

// ownGroup gives a benchmark run a process group of its own, so that
// interrupt can reach `go run`, the harness it built and every daemon that
// harness started.
func ownGroup(cmd *exec.Cmd) { cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true} }

// interrupt asks the whole group to stop the way ^C would; the harness removes
// its work directory and its daemons on SIGINT.
func interrupt(cmd *exec.Cmd) error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGINT) }
