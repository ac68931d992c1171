package baseline

import (
	"fmt"

	"tbwf/internal/prim"
	"tbwf/internal/qa"
	"tbwf/internal/register"
)

// BuildOF wires an obstruction-free client per substrate process over a
// fresh query-abortable object.
func BuildOF[S, O, R any](sub prim.Substrate, typ qa.Type[S, O, R], opts ...prim.AbOption) ([]*OFClient[S, O, R], error) {
	obj, err := qa.New(typ, sub.N(), qa.SubstrateFactories[O](sub, opts...), 0)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	clients := make([]*OFClient[S, O, R], sub.N())
	for p := range clients {
		c, err := NewOFClient(obj.Handle(p))
		if err != nil {
			return nil, err
		}
		clients[p] = c
	}
	return clients, nil
}

// BuildPanic wires a panic-mode booster client per substrate process: a
// fresh query-abortable object plus one shared atomic panic register per
// process.
func BuildPanic[S, O, R any](sub prim.Substrate, typ qa.Type[S, O, R], opts ...prim.AbOption) ([]*PanicClient[S, O, R], error) {
	obj, err := qa.New(typ, sub.N(), qa.SubstrateFactories[O](sub, opts...), 0)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	n := sub.N()
	panicRegs := make([]prim.Register[int64], n)
	for q := 0; q < n; q++ {
		panicRegs[q] = register.SubstrateAtomic(sub, fmt.Sprintf("Panic[%d]", q), int64(0))
	}
	clients := make([]*PanicClient[S, O, R], n)
	for p := range clients {
		c, err := NewPanicClient(p, obj.Handle(p), panicRegs)
		if err != nil {
			return nil, err
		}
		clients[p] = c
	}
	return clients, nil
}

// BuildAck wires an acknowledgement-round booster client per substrate
// process — a fresh query-abortable object, the announcement and ack
// register matrices — and spawns every process's acker task.
func BuildAck[S, O, R any](sub prim.Substrate, typ qa.Type[S, O, R], opts ...prim.AbOption) ([]*AckClient[S, O, R], error) {
	obj, err := qa.New(typ, sub.N(), qa.SubstrateFactories[O](sub, opts...), 0)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	n := sub.N()
	announce := make([]prim.Register[int64], n)
	acks := make([][]prim.Register[int64], n)
	for q := 0; q < n; q++ {
		announce[q] = register.SubstrateAtomic(sub, fmt.Sprintf("Announce[%d]", q), int64(0))
		acks[q] = make([]prim.Register[int64], n)
		for p := 0; p < n; p++ {
			if p != q {
				acks[q][p] = register.SubstrateAtomic(sub, fmt.Sprintf("Ack[%d,%d]", q, p), int64(0))
			}
		}
	}
	clients := make([]*AckClient[S, O, R], n)
	for p := range clients {
		c, err := NewAckClient(p, obj.Handle(p), announce, acks)
		if err != nil {
			return nil, err
		}
		clients[p] = c
		sub.Spawn(p, fmt.Sprintf("acker[%d]", p), c.AckerTask())
	}
	return clients, nil
}
