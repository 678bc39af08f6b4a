package columnar

import "unsafe"

var _ = unsafe.Sizeof(0)
