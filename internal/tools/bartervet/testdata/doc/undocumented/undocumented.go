package undocumented

import "fmt"

func Func() {}

type Type struct{}

func (Type) Method() {}

func (*Type) PtrMethod() {}

func (Type) String() string { return fmt.Sprint(0) }

func (Type) Size() int { return 0 }

// sizer declares Size, as fmt.Stringer, an interface of an import, declares
// String: Type.Size and Type.String above are exempt.
type sizer interface{ Size() int }

type Generic[T any] struct{}

func (g *Generic[T]) Method() {}

const Const = 1

var Var = 2

var (
	GroupedVar = 3
	// DocumentedInGroup has its own comment inside an undocumented block.
	DocumentedInGroup = 4
)

func helper() {}

type hidden struct{}

// An exported method of an unexported type still needs a comment.
func (hidden) Exported() {}

func (hidden) Undocumented() {}

const lower = 1
