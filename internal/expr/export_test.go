package expr

// InterpretWhere lets the external benchmarks set the interpreter beside
// the compiled predicate.
var InterpretWhere = interpretWhere
