package check

import (
	"fmt"
	"strings"
)

// RegisterModel is the sequential specification of one array element: an
// int64 register with initial value 0 (Go zero value, which is also what a
// freshly allocated or recycled-and-poisoned block reads as). Stores always
// succeed; a load must observe the latest linearized store.
func RegisterModel() Model {
	return Model{
		Name: "register",
		Init: func() any { return int64(0) },
		Step: func(state any, op *Op) (bool, any) {
			v := state.(int64)
			switch op.Kind {
			case KindStore:
				return true, op.Arg
			case KindLoad:
				return op.Out == v, v
			}
			return false, state
		},
	}
}

// CapacityModel is the sequential specification of the array's capacity in
// elements: Grow adds Idx blocks, Shrink removes Idx blocks (never below
// zero), Len observes the current capacity. base is the capacity when the
// history began.
func CapacityModel(blockSize, base int) Model {
	return Model{
		Name: "capacity",
		Init: func() any { return base },
		Step: func(state any, op *Op) (bool, any) {
			c := state.(int)
			switch op.Kind {
			case KindGrow:
				return true, c + op.Idx*blockSize
			case KindShrink:
				next := c - op.Idx*blockSize
				return next >= 0, next
			case KindLen:
				return op.Out == int64(c), c
			}
			return false, state
		},
	}
}

// kvState is the per-key sequential state of a map entry.
type kvState struct {
	present bool
	val     int64
}

// KVModel is the sequential specification of one map key: Put reports
// whether it newly inserted (Out2 = 1), Get reports presence (Out2) and the
// value (Out), Del reports whether the key existed (Out2).
func KVModel() Model {
	return Model{
		Name: "kv",
		Init: func() any { return kvState{} },
		Step: func(state any, op *Op) (bool, any) {
			s := state.(kvState)
			switch op.Kind {
			case KindPut:
				inserted := op.Out2 == 1
				return inserted == !s.present, kvState{present: true, val: op.Arg}
			case KindGet:
				found := op.Out2 == 1
				if found != s.present {
					return false, s
				}
				return !found || op.Out == s.val, s
			case KindDel:
				removed := op.Out2 == 1
				return removed == s.present, kvState{}
			}
			return false, state
		},
	}
}

// VectorModel is the whole-vector sequential specification used by the
// dvector smoke lincheck: a stack-like sequence supporting push/pop at the
// tail plus random-access at/set/len. State is a value-copied slice; Key
// canonicalizes it for memoization.
func VectorModel() Model {
	return Model{
		Name: "vector",
		Init: func() any { return []int64(nil) },
		Step: func(state any, op *Op) (bool, any) {
			s := state.([]int64)
			switch op.Kind {
			case KindPush:
				if op.Out != int64(len(s)) {
					return false, state
				}
				next := make([]int64, len(s)+1)
				copy(next, s)
				next[len(s)] = op.Arg
				return true, next
			case KindPop:
				popped := op.Out2 == 1
				if popped != (len(s) > 0) {
					return false, state
				}
				if !popped {
					return true, s
				}
				if op.Out != s[len(s)-1] {
					return false, state
				}
				return true, s[: len(s)-1 : len(s)-1]
			case KindAt:
				ok := op.Idx >= 0 && op.Idx < len(s) && op.Out == s[op.Idx]
				return ok, s
			case KindSet:
				if op.Idx < 0 || op.Idx >= len(s) {
					return false, state
				}
				next := make([]int64, len(s))
				copy(next, s)
				next[op.Idx] = op.Arg
				return true, next
			case KindLen:
				return op.Out == int64(len(s)), s
			}
			return false, state
		},
		Key: func(state any) any {
			s := state.([]int64)
			var sb strings.Builder
			for _, v := range s {
				fmt.Fprintf(&sb, "%d,", v)
			}
			return sb.String()
		},
	}
}
