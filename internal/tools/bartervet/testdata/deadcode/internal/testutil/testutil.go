// Package testutil is imported only by lib's test: silent, a test import
// counts. Its exports are for tests and exempt.
package testutil

// Three is read only by a test.
const Three = 3
