// Package poison fills values with non-zero garbage for tests that show a
// reused slot carries nothing from its previous occupant: poison the
// slots, run the code that refills them, and compare the results with a
// run on clean slots.
package poison

import (
	"reflect"
	"unsafe"
)

// maxDepth bounds how deep dummy values are poisoned in turn, so that
// recursive types (a linked node) end.
const maxDepth = 3

// Fill sets every field of the value p points to non-zero, unexported
// fields included: booleans true, integers a bit pattern, and pointers
// and slices a fresh dummy value (one element for a slice), itself
// poisoned. It panics on a kind no slot here holds, such as a float, a
// string, a map or an interface.
func Fill(p any) { fill(reflect.ValueOf(p).Elem(), 0) }

func fill(v reflect.Value, depth int) {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x5a5a5a5a5a5a5a5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(0xa5a5a5a5a5a5a5a5)
	case reflect.Array:
		for i := range v.Len() {
			fill(v.Index(i), depth)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			fill(v.Field(i), depth)
		}
	case reflect.Pointer:
		if depth < maxDepth {
			d := reflect.New(v.Type().Elem())
			fill(d.Elem(), depth+1)
			v.Set(d)
		}
	case reflect.Slice:
		if depth < maxDepth {
			d := reflect.MakeSlice(v.Type(), 1, 1)
			fill(d.Index(0), depth+1)
			v.Set(d)
		}
	default:
		panic("poison: cannot poison a " + v.Kind().String())
	}
}
