/* CRC-32 (reflected polynomial 0xEDB88320) by carry-less-multiply
   folding: the bulk kernel behind [Checksum.update] on x86-64 hosts with
   PCLMULQDQ and SSE4.1.

   The method is Gopal et al., "Fast CRC Computation for Generic
   Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with the fold,
   128->64 and Barrett constants for the reflected CRC-32 that Linux's
   crc32-pclmul uses.  Four 128-bit accumulators fold 64 bytes per step;
   they are folded into one, which then takes the remaining 16-byte
   blocks, and the 128-bit remainder is reduced to 32 bits.  The result is
   bit-identical to a table CRC.

   The caller passes the running CRC register (not inverted: [update]
   does the pre- and post-inversion) and a span of at least 64 bytes whose
   length is a multiple of 16; the table loop in checksum.ml does the
   tail.  Loads are unaligned, so the span may start anywhere.

   Only this file's kernel is compiled for PCLMULQDQ and SSE4.1, through a
   function target attribute, and it runs only after
   [fpb_crc32_fold_available] reported both; on other hosts the OCaml
   table loop is the whole CRC. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#define FPB_CRC32_FOLD 1
#include <immintrin.h>

__attribute__((target("pclmul,sse4.1")))
static uint32_t crc32_fold(const unsigned char *p, size_t len, uint32_t crc)
{
  /* Bit-reflected constants, named as in Linux's crc32-pclmul: the
     64-byte fold (R2R1), the 16-byte fold and 128 -> 64 step (R4R3), the
     64 -> 32 step (R5), and mu and P for Barrett reduction (RUpoly). */
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596LL, 0x154442bd4LL);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009eLL, 0x1751997d0LL);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124LL);
  const __m128i poly = _mm_set_epi64x(0x1f7011641LL, 0x1db710641LL);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  __m128i x1, x2, x3, x4, t1, t2, t3, t4;

  x1 = _mm_loadu_si128((const __m128i *)p);
  x2 = _mm_loadu_si128((const __m128i *)(p + 16));
  x3 = _mm_loadu_si128((const __m128i *)(p + 32));
  x4 = _mm_loadu_si128((const __m128i *)(p + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
  p += 64;
  len -= 64;

  while (len >= 64) {
    t1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    t2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    t3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    t4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, t1),
                       _mm_loadu_si128((const __m128i *)p));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, t2),
                       _mm_loadu_si128((const __m128i *)(p + 16)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, t3),
                       _mm_loadu_si128((const __m128i *)(p + 32)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, t4),
                       _mm_loadu_si128((const __m128i *)(p + 48)));
    p += 64;
    len -= 64;
  }

  /* four accumulators into one */
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x00), t1);
  x1 = _mm_xor_si128(x1, x2);
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x00), t1);
  x1 = _mm_xor_si128(x1, x3);
  t1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x00), t1);
  x1 = _mm_xor_si128(x1, x4);

  while (len >= 16) {
    t1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x00), t1);
    x1 = _mm_xor_si128(x1, _mm_loadu_si128((const __m128i *)p));
    p += 16;
    len -= 16;
  }

  /* 128 -> 64 bits, which also appends 32 zero bits */
  t1 = _mm_clmulepi64_si128(k3k4, x1, 0x01);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t1);

  /* 64 -> 32 bits */
  t1 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(x1, t1);

  /* Barrett reduction to the 32-bit remainder */
  t1 = x1;
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t1);
  return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

/* [fpb_crc32_fold_available ()]: whether this CPU runs [crc32_fold]. */
value fpb_crc32_fold_available(value unit)
{
  (void)unit;
#ifdef FPB_CRC32_FOLD
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("pclmul")
                  && __builtin_cpu_supports("sse4.1"));
#else
  return Val_false;
#endif
}

/* [fpb_crc32_fold c b off len]: the CRC register [c] advanced over
   [len] bytes of [b] from [off]; [len] >= 64 and a multiple of 16, the
   range checked by the caller.  Allocates nothing. */
value fpb_crc32_fold(value c, value b, value off, value len)
{
#ifdef FPB_CRC32_FOLD
  return Val_long(crc32_fold(Bytes_val(b) + Long_val(off),
                             (size_t)Long_val(len),
                             (uint32_t)Long_val(c)));
#else
  /* unreachable: [fpb_crc32_fold_available] is false here */
  (void)b; (void)off; (void)len;
  return c;
#endif
}
