// Package vcd renders simulation traces as Value Change Dump (IEEE 1364
// §18) text, the interchange format every waveform viewer reads. The
// pipeline uses it to ship counterexample traces alongside failure logs,
// and cmd/solve can emit the failing waveform next to its repair
// suggestions.
package vcd

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/sim"
)

// Options control rendering.
type Options struct {
	// Timescale per clock cycle; default "1ns".
	Timescale string
	// Signals restricts the dump to the named signals (nil = all, in the
	// design's deterministic order).
	Signals []string
	// Date stamps the header; empty omits the field (keeps output
	// deterministic for tests and dataset artefacts).
	Date time.Time
}

// Write renders the trace as a VCD document. Each trace row (a preponed
// sample) becomes one timestep; the clock itself is emitted as an extra
// toggling signal so viewers show edges.
func Write(w io.Writer, tr *sim.Trace, opts Options) error {
	if tr == nil || tr.Design == nil {
		return fmt.Errorf("vcd: nil trace")
	}
	ts := opts.Timescale
	if ts == "" {
		ts = "1ns"
	}
	names := opts.Signals
	if names == nil {
		names = tr.Design.Order
	}
	for _, n := range names {
		if tr.Design.Signals[n] == nil {
			return fmt.Errorf("vcd: unknown signal %q", n)
		}
	}

	var sb strings.Builder
	if !opts.Date.IsZero() {
		fmt.Fprintf(&sb, "$date %s $end\n", opts.Date.UTC().Format(time.RFC3339))
	}
	sb.WriteString("$version repro AssertSolver reproduction $end\n")
	fmt.Fprintf(&sb, "$timescale %s $end\n", ts)
	ids := identifiers(len(names) + 1)
	clkID := ids[len(names)]
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = tr.Design.Signals[n].Width
	}
	writeScopes(&sb, tr, names, ids, widths, clkID)
	sb.WriteString("$enddefinitions $end\n")

	// Initial dump plus per-cycle changes. Each cycle spans two timesteps
	// so the synthetic clock shows a rising edge at the sample point.
	prev := make([]sim.V4, len(names))
	first := true
	for c := 0; c < tr.Len(); c++ {
		fmt.Fprintf(&sb, "#%d\n", 2*c)
		if first {
			sb.WriteString("$dumpvars\n")
		}
		for i, n := range names {
			v, _ := tr.Value4(c, n)
			if first || v != prev[i] {
				writeValue(&sb, v, widths[i], ids[i])
			}
			prev[i] = v
		}
		fmt.Fprintf(&sb, "1%s\n", clkID)
		if first {
			sb.WriteString("$end\n")
			first = false
		}
		fmt.Fprintf(&sb, "#%d\n0%s\n", 2*c+1, clkID)
	}
	fmt.Fprintf(&sb, "#%d\n", 2*tr.Len())
	_, err := io.WriteString(w, sb.String())
	return err
}

// scopeNode is one level of the VCD scope tree. Flattened hierarchical
// names ("u0.count") split on dots: each instance path segment becomes a
// nested $scope module, and only the leaf segment is declared as a $var —
// dotted identifiers are not legal VCD variable names, and nesting lets
// waveform viewers show the instance tree the elaborator flattened.
type scopeNode struct {
	vars  []int // indices into the flat names slice, declaration order
	order []string
	kids  map[string]*scopeNode
}

func (n *scopeNode) child(name string) *scopeNode {
	if n.kids == nil {
		n.kids = map[string]*scopeNode{}
	}
	k, ok := n.kids[name]
	if !ok {
		k = &scopeNode{}
		n.kids[name] = k
		n.order = append(n.order, name)
	}
	return k
}

// writeScopes renders the $scope/$var header. The synthetic clock lives in
// the top scope; signals keep their flat identifier codes so the value
// change section below is untouched by the hierarchy.
func writeScopes(sb *strings.Builder, tr *sim.Trace, names, ids []string, widths []int, clkID string) {
	root := &scopeNode{}
	for i, n := range names {
		node := root
		segs := strings.Split(n, ".")
		for _, s := range segs[:len(segs)-1] {
			node = node.child(s)
		}
		node.vars = append(node.vars, i)
	}
	var emit func(node *scopeNode, name string, top bool)
	emit = func(node *scopeNode, name string, top bool) {
		fmt.Fprintf(sb, "$scope module %s $end\n", name)
		for _, i := range node.vars {
			n := names[i]
			leaf := n[strings.LastIndexByte(n, '.')+1:]
			kind := "wire"
			if tr.Design.Signals[n].IsReg {
				kind = "reg"
			}
			if widths[i] == 1 {
				fmt.Fprintf(sb, "$var %s 1 %s %s $end\n", kind, ids[i], leaf)
			} else {
				fmt.Fprintf(sb, "$var %s %d %s %s [%d:0] $end\n", kind, widths[i], ids[i], leaf, widths[i]-1)
			}
		}
		if top {
			fmt.Fprintf(sb, "$var wire 1 %s clk $end\n", clkID)
		}
		for _, kid := range node.order {
			emit(node.kids[kid], kid, false)
		}
		sb.WriteString("$upscope $end\n")
	}
	emit(root, tr.Design.Module.Name, true)
}

func writeValue(sb *strings.Builder, v sim.V4, width int, id string) {
	if width == 1 {
		if v.Unk&1 != 0 {
			fmt.Fprintf(sb, "x%s\n", id)
			return
		}
		fmt.Fprintf(sb, "%d%s\n", v.Val&1, id)
		return
	}
	if v.Unk == 0 {
		// Zero-pad to the declared $var width: strict viewers left-align
		// unpadded vector values against the MSB, misreading b101 in an
		// 8-bit variable as 0xA0 rather than 0x05.
		fmt.Fprintf(sb, "b%0*b %s\n", width, v.Val, id)
		return
	}
	// Unknown bits emit the 'x' value character, still padded to the
	// declared width.
	sb.WriteByte('b')
	for i := width - 1; i >= 0; i-- {
		bit := uint64(1) << uint(i)
		switch {
		case v.Unk&bit != 0:
			sb.WriteByte('x')
		case v.Val&bit != 0:
			sb.WriteByte('1')
		default:
			sb.WriteByte('0')
		}
	}
	fmt.Fprintf(sb, " %s\n", id)
}

// identifiers generates n distinct short VCD identifier codes from the
// printable range '!'..'~'.
func identifiers(n int) []string {
	const lo, hi = 33, 126
	out := make([]string, n)
	for i := 0; i < n; i++ {
		x := i
		var b []byte
		for {
			b = append(b, byte(lo+x%(hi-lo+1)))
			x = x/(hi-lo+1) - 1
			if x < 0 {
				break
			}
		}
		out[i] = string(b)
	}
	return out
}

// Strings renders a trace to a string (convenience for logs and tests).
func Strings(tr *sim.Trace, opts Options) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, tr, opts); err != nil {
		return "", err
	}
	return sb.String(), nil
}
