package serve

import (
	"tbwf/internal/objtype"
	"tbwf/internal/prim"
	"tbwf/internal/qa"
)

// The qa log's vote and decision registers carry Accepted[O]/Decision[O]
// values as `any`; on the net substrate's TCP transport those cross gob
// frames, which needs every concrete instantiation registered. The serve
// layer is the composition root that knows which object types deploy, so
// the registrations live here — one pair per deployable operation type,
// in the batch form ([]O) the request path's stacks carry. (The keyed
// object deploys on rt only and needs none.)
func init() {
	prim.RegisterWireType(qa.Accepted[[]objtype.CounterOp]{})
	prim.RegisterWireType(qa.Decision[[]objtype.CounterOp]{})
	prim.RegisterWireType(qa.Accepted[[]objtype.RegOp]{})
	prim.RegisterWireType(qa.Decision[[]objtype.RegOp]{})
	prim.RegisterWireType(qa.Accepted[[]objtype.QueueOp]{})
	prim.RegisterWireType(qa.Decision[[]objtype.QueueOp]{})
	prim.RegisterWireType(qa.Accepted[[]objtype.SnapOp]{})
	prim.RegisterWireType(qa.Decision[[]objtype.SnapOp]{})
}
