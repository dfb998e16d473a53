package rules

import (
	"reflect"
	"testing"

	"repro/internal/conceptual"
	"repro/internal/core"
)

// TestMutationPlaneNamesExistingMethods: an entry naming a method its
// receiver no longer has confines nothing, so every name in the table
// must resolve on its receiver type.
func TestMutationPlaneNamesExistingMethods(t *testing.T) {
	receivers := map[string]reflect.Type{
		"repro/internal/core.App":         reflect.TypeOf(&core.App{}),
		"repro/internal/conceptual.Store": reflect.TypeOf(&conceptual.Store{}),
	}
	for recv, methods := range MutationPlane {
		typ, ok := receivers[recv]
		if !ok {
			t.Errorf("MutationPlane receiver %s has no type in this test", recv)
			continue
		}
		for _, m := range methods {
			if _, ok := typ.MethodByName(m); !ok {
				t.Errorf("MutationPlane names %s.%s, which does not exist", recv, m)
			}
		}
	}
}
