#!/usr/bin/env python3
"""Self-test of the perfbench harness.

    python3 perfbench/selftest.py        (or: python3 perfbench/run.py --selftest)

1. The perfbench binary's own checks: the percentile rule (a tail percentile only
   with ten samples beyond it, the median alone below forty samples), the
   attempted/failed accounting and the result JSON (perfbench --selftest).
2. The independent checkers accept good samples and reject tampered ones:
   an RSA signature made here with a fixed key, and a content packet
   encrypted here with openssl.
3. Smoke mode: every workload runs for a fraction of a second, untraced
   and traced, and must come back correct with no failed operation and
   every metric present (op_p90_ms may be withheld by the percentile rule).
"""

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checkers  # noqa: E402
import run  # noqa: E402

SMOKE_SECONDS = 0.3


def rsa_signature_checks():
    # Two Mersenne primes make a fixed 1128-bit test modulus.
    p, q, e = 2**521 - 1, 2**607 - 1, 65537
    n = p * q
    d = pow(e, -1, (p - 1) * (q - 1))
    k = (n.bit_length() + 7) // 8
    body = b"ticket body for the checker self-test"
    payload = b"S256" + hashlib.sha256(body).digest()
    block = b"\x00\x01" + b"\xff" * (k - 3 - len(payload)) + b"\x00" + payload
    sig = pow(int.from_bytes(block, "big"), d, n).to_bytes(k, "big")
    errors = []
    if not checkers.rsa_signature_valid(n, e, body, sig):
        errors.append("a valid signature was rejected")
    if checkers.rsa_signature_valid(n, e, body + b"!", sig):
        errors.append("a signature over another body was accepted")
    bad = bytearray(sig)
    bad[-1] ^= 1
    if checkers.rsa_signature_valid(n, e, body, bytes(bad)):
        errors.append("a corrupted signature was accepted")
    return errors


def content_checks(tmp):
    key, nonce, seq = os.urandom(16), 0x0123456789ABCDEF, 4242
    plain = bytes([0x47]) + os.urandom(187)
    iv = checkers.packet_iv(nonce, seq)
    cipher = checkers.openssl_ctr(key, iv, plain)  # CTR is its own inverse
    sample = {"seq": seq, "key": key.hex(), "nonce": nonce, "ciphertext": cipher.hex(),
              "plaintext": plain.hex()}
    good, bad = Path(tmp) / "good.jsonl", Path(tmp) / "bad.jsonl"
    good.write_text(json.dumps(sample) + "\n")
    sample["plaintext"] = bytes([plain[0] ^ 1]).hex() + plain[1:].hex()
    bad.write_text(json.dumps(sample) + "\n")
    errors = []
    if checkers.check_content(str(good)):
        errors.append("a correct content sample was rejected: %s" % checkers.check_content(str(good)))
    if not checkers.check_content(str(bad)):
        errors.append("a content sample with the wrong plaintext was accepted")
    return errors


def smoke(binary, tmp):
    errors = []
    for trace in (0, 1):
        expected = run.expected_metrics(trace)
        for workload in run.WORKLOADS:
            out_dir = Path(tmp) / ("%s-%d" % (workload, trace))
            result = run.run_workload(binary, workload, 7, SMOKE_SECONDS, trace, out_dir)
            where = "%s --trace %d" % (workload, trace)
            violations = list(result["violations"])
            for kind, path in result["artifacts"].items():
                if kind in checkers.CHECKS:
                    violations += checkers.CHECKS[kind](path)
            if violations or not result["correct"]:
                errors.append("%s: incorrect: %s" % (where, violations))
            if result["attempted"] < 1 or result["failed"] != 0:
                errors.append("%s: attempted %d, failed %d" %
                              (where, result["attempted"], result["failed"]))
            missing = [m for m in expected if m not in result["metrics"]]
            if missing and missing != ["op_p90_ms"]:
                errors.append("%s: missing metrics %s" % (where, missing))
    return errors


def main():
    binary = run.build()
    failures = []
    code = os.spawnv(os.P_WAIT, str(binary), [str(binary), "--selftest"])
    if code != 0:
        failures.append("perfbench --selftest failed")
    failures += ["rsa checker: " + e for e in rsa_signature_checks()]
    tmp = run.ROOT / ".bench_out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    failures += ["content checker: " + e for e in content_checks(tmp)]
    failures += ["smoke: " + e for e in smoke(binary, tmp)]
    for f in failures:
        print("SELFTEST FAIL: " + f)
    print("perfbench selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
