package dataset

import (
	"fmt"
	"strings"
	"testing"
)

// benchSamples builds a realistic sample set: multi-KB code bodies,
// FormatLog-shaped logs, heavily repeated Spec/GoldenCode text.
func benchSamples(n int) []SVASample {
	code := strings.Repeat("  always @(posedge clk) begin\n    if (rst_n) count <= count + 1;\n  end\n", 30)
	out := make([]SVASample, n)
	for i := range out {
		out[i] = SVASample{
			ID:         fmt.Sprintf("mod%d_bug%d", i%40, i),
			Module:     fmt.Sprintf("mod%d", i%40),
			Family:     "counter",
			Spec:       "The module counts clock cycles while rst_n is high.",
			BuggyCode:  code,
			GoldenCode: code,
			Logs: fmt.Sprintf("failed assertion mod%d.count_holds at cycle %d\n", i%40, i%29) +
				fmt.Sprintf("  failing term: count == prev + 1 (attempt started at cycle %d, 3 failing attempts in trace)\n", i%29) +
				fmt.Sprintf("  sampled values at cycle %d: clk=1 count=%d prev=x rst_n=b1x0\n", i%29, i),
			LineNo:    i % 90,
			BuggyLine: "count <= count - 1;",
			FixedLine: "count <= count + 1;",
			Syn:       "Op",
			IsDirect:  true,
			Lines:     90,
			Origin:    "machine",
		}
	}
	return out
}

func benchWriteRead(b *testing.B, format string, phase string) {
	samples := benchSamples(256)
	dir := b.TempDir()
	write := func() []string {
		w, err := NewWriter(dir, "bench", format, 4)
		if err != nil {
			b.Fatal(err)
		}
		for i := range samples {
			if err := w.Write(&samples[i]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		return w.Paths()
	}
	paths := write()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if phase != "read" {
			paths = write()
		}
		if phase != "write" {
			got, err := ReadShards[SVASample](paths)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(samples) {
				b.Fatal("short read")
			}
		}
	}
	b.StopTimer()
	var total int
	for range samples {
		total++
	}
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkShardWrite_JSONL(b *testing.B) { benchWriteRead(b, "jsonl", "write") }
func BenchmarkShardWrite_Bin(b *testing.B)   { benchWriteRead(b, "bin", "write") }
func BenchmarkShardRead_JSONL(b *testing.B)  { benchWriteRead(b, "jsonl", "read") }
func BenchmarkShardRead_Bin(b *testing.B)    { benchWriteRead(b, "bin", "read") }
