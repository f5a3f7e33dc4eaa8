package verilog

// MaxNesting is the parser's nesting bound, for the external tests.
const MaxNesting = maxNesting

// Nesting parses src as a source set and returns the deepest nesting level
// the parser reached.
func Nesting(src string) (int, error) {
	p := newParser(src)
	_, err := p.parseSet()
	return p.deepest, err
}
