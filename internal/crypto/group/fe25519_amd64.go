//go:build amd64 && !purego

package group

// feKernel names this build variant of Mul and Square (see Kernel).
const feKernel = "amd64"

// Mul sets v = a * b. v may alias a and b.
func (v *fe25519) Mul(a, b *fe25519) { feMul(v, a, b) }

// Square sets v = a * a. v may alias a.
func (v *fe25519) Square(a *fe25519) { feSquare(v, a) }

// feMul is mulGeneric in assembly (fe25519_amd64.s).
//
//go:noescape
func feMul(out, a, b *fe25519)

// feSquare is squareGeneric in assembly (fe25519_amd64.s).
//
//go:noescape
func feSquare(out, a *fe25519)
