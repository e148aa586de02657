package dil

import (
	"reflect"
	"testing"
	"unsafe"
)

// hasPointers reports whether a value of type t holds a pointer the
// collector would have to follow.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default: // pointers, slices, strings, maps, channels, funcs, interfaces
		return true
	}
}

// A stored posting is a 16-byte record with no pointer: the keyword
// cache's arrays are never scanned by the collector, and a field that
// reintroduced a Dewey slice (or padding) fails here.
func TestPostingLayout(t *testing.T) {
	if got := unsafe.Sizeof(Posting{}); got != 16 {
		t.Errorf("a posting is %d bytes, want 16", got)
	}
	elem := reflect.TypeOf(List(nil)).Elem()
	if hasPointers(elem) {
		t.Errorf("%v holds a pointer", elem)
	}
	// The walk itself must see the pointer the Dewey form carries.
	if !hasPointers(reflect.TypeOf(Entry{})) {
		t.Error("hasPointers misses Entry's Dewey slice")
	}
}
