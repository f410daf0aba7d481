package undocumented

func Func() {}

type Type struct{}

func (Type) Method() {}

func (*Type) PtrMethod() {}

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

func (hidden) Exported() {}

const lower = 1
