package main

import (
	"os/exec"
	"syscall"
)

// command builds a child process that the kernel kills if this program
// dies first, so an interrupted benchmark leaves no server running.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}
