package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/augment"
	"repro/internal/bugs"
	"repro/internal/corpus"
	"repro/internal/cot"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/formal"
	"repro/internal/verify"
)

// fixtureSeed is the augment seed of the judge's dataset, and the seed
// whose outputs the digests below pin.
const fixtureSeed = 211

// augmentDigest pins the sha256 of the augment workload's shard files,
// concatenated in sorted-name order, at seed 211. The pipeline is
// byte-identical for a fixed seed at any worker count or GOMAXPROCS.
const augmentDigest = "486484105f2f0e3b78beb076a74608473f5e980acc4c69ede36c28fa5a8cc968"

// augmentConfig is the augment workload: the fixed catalog (no generated
// designs), four mutations per design, six random runs per bounded check.
// Generated designs are left out on purpose: their cost depends so much on
// the seed (7.6 to 12.4 s for -n 16 over seeds 1, 2, 5) that no bound could
// hold across seeds, while the catalog run varies only with machine noise.
func (b *bench) augmentConfig(seed int64) augment.Config {
	c := augment.Config{Seed: seed, MutationsPerDesign: 4, RandomRuns: 6}
	if b.quick {
		c.MutationsPerDesign, c.RandomRuns = 1, 1
	}
	return c
}

// augmentArgs are the cmd/augment flags that run c.
func augmentArgs(c augment.Config, out string) []string {
	return []string{"-seed", strconv.FormatInt(c.Seed, 10), "-n", "0",
		"-mutations", strconv.Itoa(c.MutationsPerDesign), "-runs", strconv.Itoa(c.RandomRuns),
		"-format", "bin", "-out", out}
}

// measureAugment runs cmd/augment in fresh processes, at least
// b.minProcs() and until the timed phase is used up. Work is golden designs
// per second; latency is one whole cmd/augment run.
func measureAugment(b *bench, seed int64) (*runResult, error) {
	r := newRun("augment", seed)
	cfg := b.augmentConfig(seed)
	designs := float64(len(corpus.Catalog()))
	var augStarts, bareStarts, wallMS, perS, samplesPerS, rss []float64
	var measured time.Duration
	for len(perS) < b.minProcs() || measured < b.seconds {
		out, err := b.tempDir("augment-")
		if err != nil {
			return nil, err
		}
		p, err := runProc(command(b.augment, augmentArgs(cfg, out)...))
		if err != nil {
			return nil, err
		}
		measured += p.wall
		r.Attempted++
		digest, err := dirDigest(out)
		if err != nil {
			return nil, err
		}
		want := r.Digest
		if seed == fixtureSeed && !b.quick {
			want = augmentDigest
		}
		if r.Digest == "" {
			r.Digest = digest
		}
		kept := false
		if want != "" && digest != want {
			r.Failed++
			r.fail("augment shards digest %s, want %s", digest, want)
		} else if seed == fixtureSeed {
			kept = b.keepFixture(out)
		}
		counts := datasetCounts(p.stdout)
		samples := float64(counts["SVA-Bug"] + counts["SVA-Eval-Machine"])
		if samples == 0 {
			r.fail("cmd/augment reported no samples:\n%s", tail(string(p.stdout), 500))
		}
		s := p.wall.Seconds()
		wallMS = append(wallMS, s*1e3)
		perS = append(perS, designs/s)
		samplesPerS = append(samplesPerS, samples/s)
		rss = append(rss, p.rssMB)
		if !kept {
			os.RemoveAll(out)
		}
		starts, bare, err := b.augmentStartups()
		if err != nil {
			return nil, err
		}
		augStarts = append(augStarts, starts...)
		bareStarts = append(bareStarts, bare...)
	}
	r.setTimes(median(augStarts)/median(bareStarts)*bareStartNominal.Seconds(), median(perS), wallMS)
	r.extra("augment.start_ms", median(augStarts)*1e3, "ms")
	r.extra("probe.start_ms", median(bareStarts)*1e3, "ms")
	r.set("peak_rss_mb", median(rss), "MiB")
	r.extra("augment.designs_per_s", median(perS), "1/s")
	r.extra("augment.samples_per_s", median(samplesPerS), "1/s")
	r.extra("error_ratio", float64(r.Failed)/float64(r.Attempted), "ratio")
	return r, nil
}

// bareStartNominal is the probe's median start-up on the machine the
// bounds in BENCHMARK.json were set on, a 2-core Intel Xeon at 2.1 GHz.
// The augment workload's set-up is reported as cmd/augment's start-up over
// the probe's, times this.
const bareStartNominal = 800 * time.Microsecond

// augmentStartups samples the augment workload's set-up: the time
// cmd/augment takes to start, initialise every package it links and exit
// on a flag error, alternating with starts of the probe, a Go program that
// does nothing. Work moved into package initialisation shows in the ratio
// of the two; how fast the host starts processes at the moment does not.
// Between sets of runs the host moved the median cmd/augment start by up
// to 24% (0.93 to 1.15 ms), while over 24 runs the ratio spread 0.036
// against 0.20 for the start alone. The samples run right after each
// cmd/augment run, so the CPU is in the same busy state every time: on an
// idle CPU the same start takes 0.8 to 1.9 ms depending on how long it
// idled.
func (b *bench) augmentStartups() (starts, bare []float64, err error) {
	for i := 0; i < 15; i++ {
		cmd := command(b.augment, "-format", "none")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		t := time.Now()
		err := cmd.Run()
		starts = append(starts, time.Since(t).Seconds())
		if err == nil || !strings.Contains(stderr.String(), "unknown -format") {
			return nil, nil, fmt.Errorf("cmd/augment start-up probe: %v %s", err, stderr.String())
		}
		t = time.Now()
		if err := command(b.probe).Run(); err != nil {
			return nil, nil, fmt.Errorf("probe: %w", err)
		}
		bare = append(bare, time.Since(t).Seconds())
	}
	return starts, bare, nil
}

// keepFixture moves a verified fixture-seed augment output into the judge's
// dataset directory when that is still missing.
func (b *bench) keepFixture(dir string) bool {
	if _, err := os.Stat(b.fixture); err == nil {
		return false
	}
	return os.Rename(dir, b.fixture) == nil
}

// judgeFixture returns the judge's dataset directory, generating it with
// cmd/augment at the fixture seed when it is missing. The dataset is
// deterministic for a given cmd/augment binary, and the directory is keyed
// by the binary's hash, so it is kept between invocations; its digest is
// checked on every use.
func (b *bench) judgeFixture() (string, error) {
	if _, err := os.Stat(b.fixture); err != nil {
		out, err := b.tempDir("fixture-")
		if err != nil {
			return "", err
		}
		if _, err := runProc(command(b.augment, augmentArgs(b.augmentConfig(fixtureSeed), out)...)); err != nil {
			return "", err
		}
		if err := os.Rename(out, b.fixture); err != nil {
			return "", err
		}
	}
	if !b.quick {
		digest, err := dirDigest(b.fixture)
		if err != nil {
			return "", err
		}
		if digest != augmentDigest {
			return "", fmt.Errorf("judge dataset %s: digest %s, want %s", b.fixture, digest, augmentDigest)
		}
	}
	return b.fixture, nil
}

// dirDigest hashes the files of dir concatenated in sorted-name order.
func dirDigest(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		f, err := os.Open(filepath.Join(dir, n))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

var countRE = regexp.MustCompile(`([A-Za-z-]+)=(\d+)`)

// datasetCounts parses cmd/augment's "Datasets: Verilog-PT=174 ..." line.
func datasetCounts(stdout []byte) map[string]int {
	out := map[string]int{}
	for _, line := range strings.Split(string(stdout), "\n") {
		if !strings.HasPrefix(line, "Datasets:") {
			continue
		}
		for _, m := range countRE.FindAllStringSubmatch(line, -1) {
			out[m[1]], _ = strconv.Atoi(m[2])
		}
	}
	return out
}

// traceAugment runs the pipeline in this process as one span (augment.Run
// plus BuildHumanEval, what cmd/augment runs before writing), reads the
// verification service's counters, then replays the golden population and
// its first mutants layer by layer, adding the steps only augmentation
// takes: formal.Differ on passing mutants, CoT generation on failing ones,
// and a binary write and read of the samples.
func traceAugment(b *bench, seed int64, measured *runResult) (*runResult, *recorder, error) {
	rec := newRecorder()
	r := newRun("augment", seed)
	cfg := b.augmentConfig(seed)
	var out *augment.Output
	var err error
	start := time.Now()
	rec.timed(nil, "augment.run", func() string {
		out, err = augment.Run(cfg)
		return errString(err)
	})
	if err != nil {
		return nil, nil, err
	}
	rec.timed(nil, "augment.human", func() string {
		_, err = augment.BuildHumanEval(cfg)
		return errString(err)
	})
	if err != nil {
		return nil, nil, err
	}
	runS := time.Since(start).Seconds()
	r.Attempted = 1
	vm := verify.Default().Metrics()
	verifyRatios(r, vm.Hits+vm.Misses+vm.Coalesced, vm.Misses, vm.Coalesced)
	r.extra("augment.samples", float64(len(out.SVABug)+len(out.SVAEvalMachine)), "count")

	rp, err := b.replayer(rec, seed)
	if err != nil {
		return nil, nil, err
	}
	perDesign := 2
	if b.quick {
		perDesign = 1
	}
	gen := cot.NewGenerator(cfg.Defaults().CoTCorruptRate, seed)
	catalog := corpus.Catalog()
	for _, bp := range catalog {
		opts := formal.Options{Seed: seed, Depth: bp.CheckDepth(16), RandomRuns: cfg.RandomRuns}
		golden := rp.item(replayItem{src: bp.Source(), opts: opts})
		if golden == nil {
			r.fail("catalog design %s does not compile in the replay", bp.Name())
			continue
		}
		four := opts
		four.FourState = true
		root := rec.start(nil, "replay")
		rp.formalCheck(root, golden.design, four)
		root.end("")
		for _, mu := range bugs.Enumerate(bp.Module, perDesign) {
			m := rp.item(replayItem{src: bp.SourceWith(mu.Mutant), opts: opts})
			if m == nil || m.res == nil {
				continue
			}
			root := rec.start(nil, "replay")
			if m.res.Pass {
				rec.timed(root, "formal.differ", func() string {
					_, _, err := formal.Differ(context.Background(), golden.design, m.design, opts)
					return errString(err)
				})
			} else {
				rec.timed(root, "cot.generate", func() string {
					gen.Generate(cot.Input{Module: bp.Name(), LineNo: mu.LineNo, BuggyLine: mu.BuggyLine,
						FixedLine: mu.GoldenLine, Logs: m.res.Log, Syn: mu.Syn.String(), IsCond: mu.IsCond})
					return ""
				})
			}
			root.end("")
		}
	}
	if err := rp.close(); err != nil {
		return nil, nil, err
	}
	if err := binRoundTrip(rec, out.SVABug); err != nil {
		return nil, nil, err
	}
	rp.layerMetrics(r)
	traceOverhead(r, measured, float64(len(catalog))/runS, rp.checks, int(vm.Misses))
	spans := rec.snapshot()
	r.extra("formal.differ_ms", medianUS(spans, "formal.differ")/1e3, "ms")
	r.extra("cot.generate_us", medianUS(spans, "cot.generate"), "us")
	r.extra("dataset.bin_write_us", medianUS(spans, "dataset.bin_write"), "us")
	r.extra("dataset.bin_read_us", medianUS(spans, "dataset.bin_read"), "us")
	return r, rec, nil
}

// binRoundTrip encodes every sample into an in-memory binary shard and
// decodes it back, one span per record each way.
func binRoundTrip(rec *recorder, samples []dataset.SVASample) error {
	var buf bytes.Buffer
	w, err := binfmt.NewWriter(&buf)
	if err != nil {
		return err
	}
	for i := range samples {
		rec.timed(nil, "dataset.bin_write", func() string {
			if err := dataset.EncodeRecord(w.Record(), &samples[i]); err != nil {
				return err.Error()
			}
			return errString(w.Commit())
		})
	}
	if err := w.Close(); err != nil {
		return err
	}
	rd, err := binfmt.Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return err
	}
	for i := 0; i < rd.Count(); i++ {
		rec.timed(nil, "dataset.bin_read", func() string {
			d, err := rd.At(i)
			if err != nil {
				return err.Error()
			}
			_, err = dataset.DecodeRecord(d)
			return errString(err)
		})
	}
	return nil
}
