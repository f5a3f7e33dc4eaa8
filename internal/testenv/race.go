//go:build race

package testenv

// Race reports whether the binary was built with the race detector, which
// changes allocation counts; allocation guards skip themselves under it.
const Race = true
