package types

// Msg is a message in the universe M. Concrete message types provide a
// canonical key used for equality, traces, and state fingerprints.
type Msg interface {
	MsgKey() string
}

// ClientMsg is a client message in M_c, the set of messages clients may use
// for communication. In the specification layer client payloads are strings.
type ClientMsg string

// MsgKey implements Msg.
func (m ClientMsg) MsgKey() string { return "c:" + string(m) }

// String renders the message.
func (m ClientMsg) String() string { return string(m) }

// Batch groups several client messages into one wire unit. The tob shell
// coalesces the label/summary messages drained from adjacent macro-steps
// into a Batch before handing them to DVS, and expands a received Batch
// back into individual messages before they reach the protocol core — so
// the verified cores never see the type. A Batch is deliberately NOT a
// ServiceMsg: the VS-TO-DVS automaton treats client messages opaquely
// (queued, sent, delivered and safe-indicated as single units), which is
// exactly the transparency batching needs.
type Batch struct{ Msgs []Msg }

// MsgKey implements Msg: the concatenation of the member keys, so batches
// fingerprint and render canonically wherever single messages do.
func (b Batch) MsgKey() string {
	n := len("batch[]")
	for _, m := range b.Msgs {
		n += len(m.MsgKey()) + 1
	}
	buf := make([]byte, 0, n)
	buf = append(buf, "batch["...)
	for i, m := range b.Msgs {
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = append(buf, m.MsgKey()...)
	}
	buf = append(buf, ']')
	return string(buf)
}

// EqualMsg implements MsgEqualer.
func (m ClientMsg) EqualMsg(o Msg) bool {
	om, ok := o.(ClientMsg)
	return ok && m == om
}

// EqualMsg implements MsgEqualer: o is a batch of pairwise equal members
// in the same order. Unlike comparing MsgKey renderings this is exact:
// the key of a member may contain the '|' that separates members.
func (b Batch) EqualMsg(o Msg) bool {
	ob, ok := o.(Batch)
	if !ok || len(b.Msgs) != len(ob.Msgs) {
		return false
	}
	for i, m := range b.Msgs {
		if !SameMsg(m, ob.Msgs[i]) {
			return false
		}
	}
	return true
}

// MsgEqualer is implemented by message types that compare structurally.
type MsgEqualer interface {
	Msg
	// EqualMsg reports whether o has the receiver's dynamic type and an
	// equal value.
	EqualMsg(o Msg) bool
}

// SameMsg reports whether a and b are the same message, comparing values
// structurally (recursing into batches) rather than rendering keys. A
// message type without an EqualMsg method is compared by its MsgKey.
func SameMsg(a, b Msg) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if e, ok := a.(MsgEqualer); ok {
		return e.EqualMsg(b)
	}
	return a.MsgKey() == b.MsgKey()
}

// ServiceMsg marks messages that are internal to a group-communication
// layer (e.g. the "info" and "registered" messages of VS-TO-DVS) and hence
// not members of M_c.
type ServiceMsg interface {
	Msg
	// ServiceMsg is a marker method.
	ServiceMsg()
}

// IsClient reports whether m is a client message (member of M_c): any
// message that is not marked as service-internal.
func IsClient(m Msg) bool {
	_, svc := m.(ServiceMsg)
	return !svc
}
