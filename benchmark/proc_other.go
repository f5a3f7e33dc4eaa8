//go:build !linux

package main

import "os/exec"

// command builds a child process. Only Linux can tie a child's life to
// this program's; elsewhere an interrupted run may leave children behind.
func command(name string, args ...string) *exec.Cmd { return exec.Command(name, args...) }
