package columnar

import u "unsafe"

var _ = u.Sizeof(0)
