//go:build !amd64 || purego

package group

// feKernel names this build variant of Mul and Square (see Kernel).
const feKernel = "generic"

// Mul sets v = a * b. v may alias a and b.
func (v *fe25519) Mul(a, b *fe25519) { v.mulGeneric(a, b) }

// Square sets v = a * a. v may alias a.
func (v *fe25519) Square(a *fe25519) { v.squareGeneric(a) }
