package poison

import (
	"reflect"
	"testing"
)

type node struct {
	val  int32
	next *node
}

type slot struct {
	on    bool
	n     int
	b     uint8
	arr   [2]uint16
	inner struct{ x int64 }
	list  []node
	head  *node
	Ptr   *int
}

// TestFillSetsEveryField: every field, unexported ones, array elements,
// nested structs and the dummy values behind pointers and slices
// included, reads non-zero; a recursive type ends at maxDepth.
func TestFillSetsEveryField(t *testing.T) {
	var s slot
	Fill(&s)
	v := reflect.ValueOf(s)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Errorf("field %s is zero", v.Type().Field(i).Name)
		}
	}
	if s.arr[0] == 0 || s.arr[1] == 0 || s.inner.x == 0 || *s.Ptr == 0 {
		t.Errorf("nested values left zero: %+v", s)
	}
	if len(s.list) != 1 || s.list[0].val == 0 || s.head.val == 0 || s.head.next.val == 0 {
		t.Errorf("dummy values left zero: %+v", s)
	}
	depth := 0
	for n := s.head; n != nil; n = n.next {
		depth++
	}
	if depth != maxDepth {
		t.Errorf("recursive node poisoned %d deep, want %d", depth, maxDepth)
	}
}
