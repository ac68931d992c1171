package prim

import "sync"

// The wire-type registry: substrates that serialize register values (the
// net substrate's TCP transport encodes structs with gob) need every
// concrete type that crosses a register as `any`. Packages that define
// such types register a zero value from init(); the transport takes in
// what the registry has gained whenever it meets a value it cannot send
// inline. This keeps prim dependency-free while letting the concrete-type
// knowledge live with the types themselves.

var (
	wireMu    sync.Mutex
	wireTypes []any
)

// RegisterWireType records a concrete value type that may cross a
// register on a serializing substrate. Safe to call from init().
func RegisterWireType(v any) {
	wireMu.Lock()
	wireTypes = append(wireTypes, v)
	wireMu.Unlock()
}

// WireTypesFrom returns the wire types registered after the first n, in
// registration order: a consumer that has taken n in asks for the rest.
func WireTypesFrom(n int) []any {
	wireMu.Lock()
	defer wireMu.Unlock()
	return append([]any(nil), wireTypes[n:]...)
}
