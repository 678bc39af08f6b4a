package colfile

import (
	"fmt"
	"unsafe"
)

var _ = fmt.Sprint(unsafe.Sizeof(0))
