#include "crypto/ec.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "crypto/secure_wipe.h"
#include "crypto/sha256.h"

namespace deta::crypto {

namespace {

using u128 = unsigned __int128;

// Field element mod p = 2^256 - 2^32 - 977: four little-endian 64-bit limbs, always fully
// reduced (< p), so equal elements have equal limbs.
struct Fe {
  uint64_t v[4] = {0, 0, 0, 0};
};

// 2^256 mod p = 2^32 + 977: a limb that overflows past 2^256 folds back in times this.
constexpr uint64_t kFold = 0x1000003d1ULL;
constexpr Fe kP = {{0xfffffffefffffc2fULL, ~0ULL, ~0ULL, ~0ULL}};
constexpr Fe kOne = {{1, 0, 0, 0}};
constexpr Fe kSeven = {{7, 0, 0, 0}};

bool FeIsZero(const Fe& a) { return (a.v[0] | a.v[1] | a.v[2] | a.v[3]) == 0; }

bool FeEqual(const Fe& a, const Fe& b) {
  return a.v[0] == b.v[0] && a.v[1] == b.v[1] && a.v[2] == b.v[2] && a.v[3] == b.v[3];
}

bool FeLessThanP(const Fe& a) {
  // p's top three limbs are all ones, so a >= p only when a's are too.
  return (a.v[3] & a.v[2] & a.v[1]) != ~0ULL || a.v[0] < kP.v[0];
}

// a += c for c < 2^128; returns the carry out of the top limb.
uint64_t AddSmall(Fe& a, u128 c) {
  u128 acc = static_cast<u128>(a.v[0]) + static_cast<uint64_t>(c);
  a.v[0] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + a.v[1] + static_cast<uint64_t>(c >> 64);
  a.v[1] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + a.v[2];
  a.v[2] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + a.v[3];
  a.v[3] = static_cast<uint64_t>(acc);
  return static_cast<uint64_t>(acc >> 64);
}

// Reduces a + carry * 2^256 (a value below 2p) into [0, p). Subtracting p is adding
// 2^256 - p = kFold and dropping the carry.
void FeFinish(Fe& a, uint64_t carry) {
  if (carry != 0 || !FeLessThanP(a)) {
    AddSmall(a, kFold);
  }
}

Fe FeAdd(const Fe& a, const Fe& b) {
  Fe r;
  u128 acc = static_cast<u128>(a.v[0]) + b.v[0];
  r.v[0] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + a.v[1] + b.v[1];
  r.v[1] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + a.v[2] + b.v[2];
  r.v[2] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + a.v[3] + b.v[3];
  r.v[3] = static_cast<uint64_t>(acc);
  FeFinish(r, static_cast<uint64_t>(acc >> 64));
  return r;
}

Fe FeSub(const Fe& a, const Fe& b) {
  Fe r;
  u128 d = static_cast<u128>(a.v[0]) - b.v[0];
  r.v[0] = static_cast<uint64_t>(d);
  d = static_cast<u128>(a.v[1]) - b.v[1] - static_cast<uint64_t>(d >> 127);
  r.v[1] = static_cast<uint64_t>(d);
  d = static_cast<u128>(a.v[2]) - b.v[2] - static_cast<uint64_t>(d >> 127);
  r.v[2] = static_cast<uint64_t>(d);
  d = static_cast<u128>(a.v[3]) - b.v[3] - static_cast<uint64_t>(d >> 127);
  r.v[3] = static_cast<uint64_t>(d);
  // On a borrow r = a - b + 2^256, and a - b + p = r - kFold, which cannot borrow past
  // the top limb because a - b > -p.
  if ((d >> 127) != 0) {
    d = static_cast<u128>(r.v[0]) - kFold;
    r.v[0] = static_cast<uint64_t>(d);
    for (int i = 1; i < 4; ++i) {
      d = static_cast<u128>(r.v[i]) - static_cast<uint64_t>(d >> 127);
      r.v[i] = static_cast<uint64_t>(d);
    }
  }
  return r;
}

// t[0..4] += ai * b: one row of the schoolbook product, t[4] receiving the carry.
void MulRow(uint64_t ai, const Fe& b, uint64_t* t) {
  u128 c = static_cast<u128>(ai) * b.v[0] + t[0];
  t[0] = static_cast<uint64_t>(c);
  c = (c >> 64) + static_cast<u128>(ai) * b.v[1] + t[1];
  t[1] = static_cast<uint64_t>(c);
  c = (c >> 64) + static_cast<u128>(ai) * b.v[2] + t[2];
  t[2] = static_cast<uint64_t>(c);
  c = (c >> 64) + static_cast<u128>(ai) * b.v[3] + t[3];
  t[3] = static_cast<uint64_t>(c);
  t[4] = static_cast<uint64_t>(c >> 64);
}

// Folds a 512-bit product t into [0, p). 2^256 = kFold (mod p): the high half times
// kFold is added to the low half, leaving a carry word below 2^34, whose product with
// kFold (below 2^67) is folded in the same way.
Fe Reduce(const uint64_t t[8]) {
  Fe r;
  u128 acc = static_cast<u128>(t[4]) * kFold + t[0];
  r.v[0] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[5]) * kFold + t[1];
  r.v[1] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[6]) * kFold + t[2];
  r.v[2] = static_cast<uint64_t>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[7]) * kFold + t[3];
  r.v[3] = static_cast<uint64_t>(acc);
  FeFinish(r, AddSmall(r, (acc >> 64) * kFold));
  return r;
}

Fe FeMul(const Fe& a, const Fe& b) {
  uint64_t t[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  MulRow(a.v[0], b, t);
  MulRow(a.v[1], b, t + 1);
  MulRow(a.v[2], b, t + 2);
  MulRow(a.v[3], b, t + 3);
  return Reduce(t);
}

Fe FeSqr(const Fe& a) { return FeMul(a, a); }

Fe FeSqrTimes(Fe a, int times) {
  for (int i = 0; i < times; ++i) {
    a = FeSqr(a);
  }
  return a;
}

// a^(p-2) = a^-1 (Fermat); a must be nonzero. p - 2 is, from the top bit down, 223
// ones, a zero, 22 ones and 0000101101; xN = a^(2^N - 1) builds the runs of ones
// (255 squarings, 15 multiplications).
Fe FeInv(const Fe& a) {
  Fe x2 = FeMul(FeSqr(a), a);
  Fe x3 = FeMul(FeSqr(x2), a);
  Fe x6 = FeMul(FeSqrTimes(x3, 3), x3);
  Fe x9 = FeMul(FeSqrTimes(x6, 3), x3);
  Fe x11 = FeMul(FeSqrTimes(x9, 2), x2);
  Fe x22 = FeMul(FeSqrTimes(x11, 11), x11);
  Fe x44 = FeMul(FeSqrTimes(x22, 22), x22);
  Fe x88 = FeMul(FeSqrTimes(x44, 44), x44);
  Fe x176 = FeMul(FeSqrTimes(x88, 88), x88);
  Fe x220 = FeMul(FeSqrTimes(x176, 44), x44);
  Fe x223 = FeMul(FeSqrTimes(x220, 3), x3);
  Fe r = FeMul(FeSqrTimes(x223, 23), x22);
  r = FeMul(FeSqrTimes(r, 5), a);
  r = FeMul(FeSqrTimes(r, 3), x2);
  return FeMul(FeSqrTimes(r, 2), a);
}

// Copies x's limbs into the zeroed |out|; false when x needs more than 256 bits.
bool LoadLimbs(const BigUint& x, uint64_t out[4]) {
  const std::vector<uint64_t>& limbs = x.limbs();
  if (limbs.size() > 4) {
    return false;
  }
  std::copy(limbs.begin(), limbs.end(), out);
  return true;
}

// Loads x into a field element; false when x >= p (a non-canonical coordinate).
bool FeFromBigUint(const BigUint& x, Fe* out) {
  *out = Fe{};
  return LoadLimbs(x, out->v) && FeLessThanP(*out);
}

BigUint FeToBigUint(const Fe& a) {
  return BigUint::FromLimbs({a.v[0], a.v[1], a.v[2], a.v[3]});
}

// A finite point (x, y).
struct Affine {
  Fe x;
  Fe y;
};

// (X / Z^2, Y / Z^3); infinity is flagged rather than encoded as Z = 0.
struct Jacobian {
  Fe x;
  Fe y;
  Fe z;
  bool infinity = true;
};

Jacobian Lift(const Affine& a) { return Jacobian{a.x, a.y, kOne, false}; }

bool OnCurve(const Affine& a) {
  return FeEqual(FeSqr(a.y), FeAdd(FeMul(FeSqr(a.x), a.x), kSeven));
}

// False when either coordinate is >= p; the curve equation is not checked here.
bool LoadAffine(const EcPoint& pt, Affine* out) {
  return FeFromBigUint(pt.x, &out->x) && FeFromBigUint(pt.y, &out->y);
}

// dbl-2009-l (a = 0): 2M + 5S.
Jacobian Double(const Jacobian& a) {
  if (a.infinity || FeIsZero(a.y)) {
    return Jacobian{};
  }
  Fe xx = FeSqr(a.x);
  Fe yy = FeSqr(a.y);
  Fe yyyy = FeSqr(yy);
  Fe d = FeSub(FeSub(FeSqr(FeAdd(a.x, yy)), xx), yyyy);
  d = FeAdd(d, d);
  Fe e = FeAdd(FeAdd(xx, xx), xx);
  Jacobian r;
  r.infinity = false;
  r.x = FeSub(FeSqr(e), FeAdd(d, d));
  Fe yyyy8 = FeAdd(yyyy, yyyy);
  yyyy8 = FeAdd(yyyy8, yyyy8);
  yyyy8 = FeAdd(yyyy8, yyyy8);
  r.y = FeSub(FeMul(e, FeSub(d, r.x)), yyyy8);
  r.z = FeMul(a.y, a.z);
  r.z = FeAdd(r.z, r.z);
  return r;
}

// Shared tail of the two additions: given U1, S1 (the first point scaled to the common
// denominator), H = U2 - U1, R = S2 - S1 and the new Z, finishes X3 and Y3.
Jacobian AddTail(const Fe& u1, const Fe& s1, const Fe& h, const Fe& r, const Fe& z3) {
  Fe hh = FeSqr(h);
  Fe hhh = FeMul(h, hh);
  Fe v = FeMul(u1, hh);
  Jacobian out;
  out.infinity = false;
  out.x = FeSub(FeSub(FeSqr(r), hhh), FeAdd(v, v));
  out.y = FeSub(FeMul(r, FeSub(v, out.x)), FeMul(s1, hhh));
  out.z = z3;
  return out;
}

// a + b, both Jacobian (add-1998-cmo-2): 12M + 4S.
Jacobian Add(const Jacobian& a, const Jacobian& b) {
  if (a.infinity) {
    return b;
  }
  if (b.infinity) {
    return a;
  }
  Fe z1z1 = FeSqr(a.z);
  Fe z2z2 = FeSqr(b.z);
  Fe u1 = FeMul(a.x, z2z2);
  Fe u2 = FeMul(b.x, z1z1);
  Fe s1 = FeMul(FeMul(a.y, b.z), z2z2);
  Fe s2 = FeMul(FeMul(b.y, a.z), z1z1);
  Fe h = FeSub(u2, u1);
  Fe r = FeSub(s2, s1);
  if (FeIsZero(h)) {
    return FeIsZero(r) ? Double(a) : Jacobian{};
  }
  return AddTail(u1, s1, h, r, FeMul(FeMul(a.z, b.z), h));
}

// a + b with b affine (Z2 = 1): 8M + 3S.
Jacobian AddAffine(const Jacobian& a, const Affine& b) {
  if (a.infinity) {
    return Lift(b);
  }
  Fe z1z1 = FeSqr(a.z);
  Fe u2 = FeMul(b.x, z1z1);
  Fe s2 = FeMul(FeMul(b.y, a.z), z1z1);
  Fe h = FeSub(u2, a.x);
  Fe r = FeSub(s2, a.y);
  if (FeIsZero(h)) {
    return FeIsZero(r) ? Double(a) : Jacobian{};
  }
  return AddTail(a.x, a.y, h, r, FeMul(a.z, h));
}

Affine ToAffineWithZInv(const Jacobian& a, const Fe& z_inv) {
  Fe z_inv2 = FeSqr(z_inv);
  return Affine{FeMul(a.x, z_inv2), FeMul(a.y, FeMul(z_inv2, z_inv))};
}

// The single field inversion of a scalar multiplication.
EcPoint ToEcPoint(const Jacobian& a) {
  if (a.infinity) {
    return EcPoint{};
  }
  Affine affine = ToAffineWithZInv(a, FeInv(a.z));
  return EcPoint{FeToBigUint(affine.x), FeToBigUint(affine.y), false};
}

// A scalar reduced mod n in four little-endian 64-bit limbs, read as 64 4-bit window
// digits. Scalars may be private keys or nonces, so every copy is wiped on scope exit.
class Scalar {
 public:
  Scalar(const BigUint& k, const BigUint& n) {
    if (k >= n) {
      BigUint reduced = k.Mod(n);
      LoadLimbs(reduced, v_);
      reduced.Wipe();
    } else {
      LoadLimbs(k, v_);
    }
  }
  ~Scalar() { SecureWipe(v_, sizeof(v_)); }
  Scalar(const Scalar&) = delete;
  Scalar& operator=(const Scalar&) = delete;

  // Window w (0 = least significant) of 64.
  unsigned Digit(int w) const {
    return static_cast<unsigned>(v_[w / 16] >> (4 * (w % 16))) & 0xf;
  }

 private:
  uint64_t v_[4] = {0, 0, 0, 0};
};

constexpr int kWindows = 64;      // 4-bit windows of a 256-bit scalar
constexpr int kWindowPoints = 15;  // nonzero digits 1..15

// window[j - 1] = j * p for the fixed-window loops (variable base, so kept Jacobian).
void BuildWindow(const Affine& p, Jacobian window[kWindowPoints]) {
  window[0] = Lift(p);
  for (int j = 1; j < kWindowPoints; ++j) {
    window[j] = AddAffine(window[j - 1], p);
  }
}

Affine LoadCurvePoint(const EcPoint& pt) {
  Affine a;
  DETA_CHECK_MSG(LoadAffine(pt, &a), "EC point coordinate out of range");
  return a;
}

}  // namespace

struct Secp256k1::GeneratorTable {
  Affine rows[kWindows][kWindowPoints];  // rows[w][j - 1] = j * 16^w * G
};

bool EcPoint::operator==(const EcPoint& other) const {
  if (is_infinity || other.is_infinity) {
    return is_infinity == other.is_infinity;
  }
  return x == other.x && y == other.y;
}

const Secp256k1& Secp256k1::Instance() {
  static const Secp256k1 instance;
  return instance;
}

Secp256k1::~Secp256k1() = default;

Secp256k1::Secp256k1() {
  p_ = BigUint::FromHexString(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  order_ = BigUint::FromHexString(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
  g_.x = BigUint::FromHexString(
      "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
  g_.y = BigUint::FromHexString(
      "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
  g_.is_infinity = false;

  // Generator table: every row is a window of j * B for B = 16^w * G, built in Jacobian
  // form and converted to affine with one batched inversion (Montgomery's trick). No
  // entry is infinity, since j * 16^w <= 15 * 16^63 < n.
  constexpr int kCount = kWindows * kWindowPoints;
  std::vector<Jacobian> points(kCount);
  Jacobian base = Lift(LoadCurvePoint(g_));
  for (int w = 0; w < kWindows; ++w) {
    Jacobian* row = &points[static_cast<size_t>(w * kWindowPoints)];
    row[0] = base;
    for (int j = 1; j < kWindowPoints; ++j) {
      row[j] = Add(row[j - 1], base);
    }
    base = Double(row[7]);  // 16 * B = 2 * (8 * B)
  }
  std::vector<Fe> prefix(kCount);  // prefix[i] = z_0 * ... * z_i
  prefix[0] = points[0].z;
  for (int i = 1; i < kCount; ++i) {
    prefix[i] = FeMul(prefix[i - 1], points[i].z);
  }
  auto table = std::make_unique<GeneratorTable>();
  Affine* flat = &table->rows[0][0];
  Fe inv = FeInv(prefix[kCount - 1]);  // 1 / (z_0 * ... * z_i) for the current i
  for (int i = kCount - 1; i > 0; --i) {
    flat[i] = ToAffineWithZInv(points[i], FeMul(inv, prefix[i - 1]));
    inv = FeMul(inv, points[i].z);
  }
  flat[0] = ToAffineWithZInv(points[0], inv);
  table_ = std::move(table);
}

bool Secp256k1::IsOnCurve(const EcPoint& pt) const {
  if (pt.is_infinity) {
    return true;
  }
  Affine a;
  return LoadAffine(pt, &a) && OnCurve(a);
}

EcPoint Secp256k1::Mul(const BigUint& k, const EcPoint& pt) const {
  if (pt.is_infinity) {
    return EcPoint{};
  }
  Jacobian window[kWindowPoints];
  BuildWindow(LoadCurvePoint(pt), window);
  Scalar s(k, order_);
  Jacobian r;
  for (int w = kWindows - 1; w >= 0; --w) {
    r = Double(Double(Double(Double(r))));
    if (unsigned d = s.Digit(w); d != 0) {
      r = Add(r, window[d - 1]);
    }
  }
  return ToEcPoint(r);
}

EcPoint Secp256k1::MulGenerator(const BigUint& k) const {
  Scalar s(k, order_);
  Jacobian r;
  for (int w = 0; w < kWindows; ++w) {
    if (unsigned d = s.Digit(w); d != 0) {
      r = AddAffine(r, table_->rows[w][d - 1]);
    }
  }
  return ToEcPoint(r);
}

EcPoint Secp256k1::MulAdd(const BigUint& u1, const BigUint& u2, const EcPoint& q) const {
  if (q.is_infinity) {
    return MulGenerator(u1);
  }
  Jacobian window[kWindowPoints];
  BuildWindow(LoadCurvePoint(q), window);
  const Affine* g_window = table_->rows[0];  // j * G
  Scalar s1(u1, order_);
  Scalar s2(u2, order_);
  Jacobian r;
  for (int w = kWindows - 1; w >= 0; --w) {
    r = Double(Double(Double(Double(r))));
    if (unsigned d = s2.Digit(w); d != 0) {
      r = Add(r, window[d - 1]);
    }
    if (unsigned d = s1.Digit(w); d != 0) {
      r = AddAffine(r, g_window[d - 1]);
    }
  }
  return ToEcPoint(r);
}

Bytes Secp256k1::Encode(const EcPoint& pt) const {
  if (pt.is_infinity) {
    return Bytes{0x00};
  }
  Bytes out;
  out.push_back(0x04);
  Bytes x = pt.x.ToBytesPadded(32);
  Bytes y = pt.y.ToBytesPadded(32);
  out.insert(out.end(), x.begin(), x.end());
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

std::optional<EcPoint> Secp256k1::Decode(const Bytes& data) const {
  if (data.size() == 1 && data[0] == 0x00) {
    return EcPoint{};
  }
  if (data.size() != 65 || data[0] != 0x04) {
    return std::nullopt;
  }
  EcPoint pt;
  pt.x = BigUint::FromBytes(Bytes(data.begin() + 1, data.begin() + 33));
  pt.y = BigUint::FromBytes(Bytes(data.begin() + 33, data.end()));
  pt.is_infinity = false;
  if (!IsOnCurve(pt)) {
    return std::nullopt;
  }
  return pt;
}

EcKeyPair GenerateEcKey(SecureRng& rng) {
  const Secp256k1& curve = Secp256k1::Instance();
  BigUint priv;
  do {
    priv = BigUint::RandomBelow(rng, curve.n());
  } while (priv.IsZero());
  EcPoint pub = curve.MulGenerator(priv);
  return EcKeyPair{std::move(priv), std::move(pub)};
}

Bytes EcdhSharedSecret(const Secret<BigUint>& private_key, const EcPoint& peer_public) {
  const Secp256k1& curve = Secp256k1::Instance();
  DETA_CHECK_MSG(curve.IsOnCurve(peer_public) && !peer_public.is_infinity,
                 "invalid ECDH peer public key");
  EcPoint shared = curve.Mul(private_key.ExposeForCrypto(), peer_public);
  DETA_CHECK_MSG(!shared.is_infinity, "degenerate ECDH shared point");
  return Sha256Digest(shared.x.ToBytesPadded(32));
}

}  // namespace deta::crypto
