// Package orphan is imported by nothing but its own external test: flagged.
package orphan

func double(n int) int { return 2 * n }

var _ = double(1)
