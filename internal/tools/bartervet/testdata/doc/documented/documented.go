// Package documented documents every exported declaration: silent.
package documented

// Func is documented.
func Func() {}

// Type is documented.
type Type struct{}

// Method is documented.
func (Type) Method() {}

// Generic is documented.
type Generic[K comparable, V any] struct{}

// Method is documented.
func (g *Generic[K, V]) Method() {}

// A doc comment on the block covers every member.
const (
	ConstA = 1
	ConstB = 2
)

// Var is documented.
var Var = 3

func helper() {}
