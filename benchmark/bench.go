package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// bench holds what every workload shares: where the binaries and the
// temporary files live, the length of a timed phase and the quick switch.
type bench struct {
	root    string
	work    string
	tmp     string
	self    string // this program, re-executed for judge children
	augment string // built cmd/augment
	serve   string // built cmd/serve
	probe   string // built benchmark/probe, a Go program that only starts
	seconds time.Duration
	quick   bool

	// fixture is the judge's dataset directory (see judgeFixture).
	fixture string
}

func newBench(root, work string, seconds time.Duration, quick bool) (*bench, error) {
	if quick {
		seconds = time.Second
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(work, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, work: work, tmp: tmp, self: self, seconds: seconds, quick: quick,
		augment: filepath.Join(bin, "augment"), serve: filepath.Join(bin, "serve"), probe: filepath.Join(bin, "probe")}
	// Build once per invocation; build time is outside every metric.
	apps := command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/augment", "./cmd/serve")
	apps.Dir = root
	probe := command("go", "build", "-o", b.probe, "./probe")
	probe.Dir = filepath.Join(root, "benchmark")
	for _, build := range []*exec.Cmd{apps, probe} {
		if out, err := build.CombinedOutput(); err != nil {
			b.close()
			return nil, fmt.Errorf("%s: %v\n%s", strings.Join(build.Args, " "), err, out)
		}
	}
	exe, err := os.ReadFile(b.augment)
	if err != nil {
		b.close()
		return nil, err
	}
	key := sha256.Sum256(append(exe, strings.Join(augmentArgs(b.augmentConfig(fixtureSeed), ""), " ")...))
	b.fixture = filepath.Join(work, "judge-dataset-"+hex.EncodeToString(key[:8]))
	return b, nil
}

// minProcs is how many fresh processes a measured augment or judge run
// takes at least: consecutive runs of the same input differ by up to a
// fifth on a shared machine, and the median of three resists one slowed
// run. Smoke runs take one.
func (b *bench) minProcs() int {
	if b.quick {
		return 1
	}
	return 3
}

// close removes the invocation's temporary files.
func (b *bench) close() { os.RemoveAll(b.tmp) }

// tempDir returns a fresh directory under the invocation's temporary tree.
func (b *bench) tempDir(prefix string) (string, error) { return os.MkdirTemp(b.tmp, prefix) }

// proc is a finished child process.
type proc struct {
	wall   time.Duration
	rssMB  float64
	stdout []byte
}

// runProc runs a command to completion and reports its wall time and peak
// resident set size. A non-zero exit is an error carrying its stderr.
func runProc(cmd *exec.Cmd) (*proc, error) {
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rss := watchRSS(cmd.Process.Pid)
	err := cmd.Wait()
	p := &proc{wall: time.Since(start), rssMB: rss.peakMB(), stdout: stdout.Bytes()}
	if err != nil {
		return p, fmt.Errorf("%s: %v\n%s", filepath.Base(cmd.Path), err, tail(stderr.String(), 2000))
	}
	return p, nil
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n:]
}

// childEnv selects a child role when this program re-executes itself; the
// child reads its request from childArgsEnv and prints one JSON line.
const (
	childEnv     = "BENCHMARK_CHILD"
	childArgsEnv = "BENCHMARK_CHILD_ARGS"
)

// runChildProc runs this program as a fresh child in the given role and
// decodes the JSON object it prints last.
func (b *bench) runChildProc(role string, args, out any) (*proc, error) {
	a, err := json.Marshal(args)
	if err != nil {
		return nil, err
	}
	cmd := command(b.self)
	cmd.Env = append(os.Environ(), childEnv+"="+role, childArgsEnv+"="+string(a))
	p, err := runProc(cmd)
	if err != nil {
		return p, err
	}
	lines := strings.Split(strings.TrimSpace(string(p.stdout)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return p, fmt.Errorf("child %s: %w", role, err)
	}
	return p, nil
}

// runChild is the entry point of a re-executed child.
func runChild(role string, stdout *os.File) error {
	switch role {
	case "judge":
		var req judgeRequest
		if err := json.Unmarshal([]byte(os.Getenv(childArgsEnv)), &req); err != nil {
			return err
		}
		res, err := judgeChild(req)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	}
	return fmt.Errorf("unknown child role %q", role)
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// errMismatch marks a response that differs from its reference.
var errMismatch = errors.New("response differs from reference")
