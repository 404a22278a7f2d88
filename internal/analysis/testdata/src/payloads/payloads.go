// Package payloads is a bitsize fixture. Out and Broadcast mirror the
// runtime's shapes structurally, so the fixture needs no import of the real
// module.
package payloads

// Out mirrors runtime.Out.
type Out struct {
	To      int
	Payload any
}

// sized implements the bit-size interface on the value receiver.
type sized struct{ V int }

func (sized) Bits() int { return 32 }

// ptrSized implements it on the pointer receiver.
type ptrSized struct{ V int }

func (*ptrSized) Bits() int { return 64 }

// unsized implements nothing.
type unsized struct{ V int }

// Broadcast and BroadcastTo mirror the runtime helpers.
func Broadcast(n int, p any) []Out { return nil }

func BroadcastTo(ids []int, p any) []Out { return nil }

func build(to int) []Out {
	outs := []Out{
		{To: to, Payload: sized{V: 1}},
		{To: to, Payload: unsized{V: 1}}, // want `payload type unsized does not implement BitSized`
	}
	outs = append(outs, Out{to, &ptrSized{}})
	outs = append(outs, Out{to, unsized{}}) // want `payload type unsized does not implement BitSized`
	var o Out
	o.Payload = unsized{} // want `payload type unsized does not implement BitSized`
	o.Payload = sized{}
	o.Payload = nil
	outs = append(outs, o)
	outs = append(outs, Broadcast(to, unsized{})...) // want `payload type unsized does not implement BitSized`
	outs = append(outs, BroadcastTo([]int{to}, sized{})...)
	return outs
}

// Ctx mirrors the broadcast methods of runtime.Env and core.StageCtx.
type Ctx struct{}

func (*Ctx) Broadcast(p any) {}

func (*Ctx) BroadcastTagged(p any, tag uint32) {}

func send(c *Ctx, p any) {
	c.Broadcast(sized{})
	c.Broadcast(unsized{}) // want `payload type unsized does not implement BitSized`
	c.BroadcastTagged(&ptrSized{}, 1)
	c.BroadcastTagged(unsized{}, 1) // want `payload type unsized does not implement BitSized`
	c.Broadcast(p)
}

// forward re-sends an interface-typed payload: checked where the concrete
// value was built, not here.
func forward(to int, p any) Out {
	return Out{To: to, Payload: p}
}

// allowedRelay documents a justified suppression.
func allowedRelay(to int) Out {
	//lint:allow bitsize (diagnostic-only payload, never sent under a CONGEST budget)
	return Out{To: to, Payload: unsized{}}
}
