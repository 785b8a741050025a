//go:build !unix

package main

import "os/exec"

func ownGroup(*exec.Cmd) {}

func interrupt(cmd *exec.Cmd) error { return cmd.Process.Kill() }
