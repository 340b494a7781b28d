//! MD (k-NN): Lennard-Jones force accumulation over fixed neighbor lists.
//!
//! The floating-point-heaviest kernel in the set; the paper uses it to
//! validate SALAM's modeling of functional-unit *reuse*, constraining the
//! expensive FP units the way HLS resource directives would.

use salam_ir::interp::{RtVal, SparseMemory};
use salam_ir::{FunctionBuilder, Type};

use crate::data;
use crate::BuiltKernel;

/// Problem shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of atoms.
    pub n_atoms: usize,
    /// Neighbors per atom.
    pub k: usize,
}

impl Default for Params {
    /// 32 atoms, 8 neighbors each.
    fn default() -> Self {
        Params { n_atoms: 32, k: 8 }
    }
}

/// Lennard-Jones constants (MachSuite's lj1/lj2 folded).
pub const LJ1: f64 = 1.5;
/// Second LJ constant.
pub const LJ2: f64 = 2.0;

/// Memory layout `(x, y, z, fx, fy, fz, neighbors)`.
#[allow(clippy::type_complexity)]
pub fn layout(p: &Params) -> (u64, u64, u64, u64, u64, u64, u64) {
    let base = 0x4800_0000u64;
    let n8 = (p.n_atoms * 8) as u64;
    let x = base;
    let y = x + n8;
    let z = y + n8;
    let fx = z + n8;
    let fy = fx + n8;
    let fz = fy + n8;
    let nl = fz + n8;
    (x, y, z, fx, fy, fz, nl)
}

/// Golden force computation.
pub fn golden(
    x: &[f64],
    y: &[f64],
    z: &[f64],
    nl: &[i64],
    p: &Params,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut fx = vec![0.0; p.n_atoms];
    let mut fy = vec![0.0; p.n_atoms];
    let mut fz = vec![0.0; p.n_atoms];
    for i in 0..p.n_atoms {
        let (mut sx, mut sy, mut sz) = (0.0, 0.0, 0.0);
        for kk in 0..p.k {
            let j = nl[i * p.k + kk] as usize;
            let delx = x[i] - x[j];
            let dely = y[i] - y[j];
            let delz = z[i] - z[j];
            let r2 = delx * delx + dely * dely + delz * delz;
            let r2inv = 1.0 / r2;
            let r6inv = r2inv * r2inv * r2inv;
            let potential = r6inv * (LJ1 * r6inv - LJ2);
            let force = r2inv * potential;
            sx += delx * force;
            sy += dely * force;
            sz += delz * force;
        }
        fx[i] = sx;
        fy[i] = sy;
        fz[i] = sz;
    }
    (fx, fy, fz)
}

/// Builds the MD-KNN kernel instance.
pub fn build(p: &Params) -> BuiltKernel {
    let (xa, ya, za, fxa, fya, fza, nla) = layout(p);
    let (n, k) = (p.n_atoms, p.k);

    let mut fb = FunctionBuilder::new(
        "md_knn",
        &[
            ("x", Type::Ptr),
            ("y", Type::Ptr),
            ("z", Type::Ptr),
            ("fx", Type::Ptr),
            ("fy", Type::Ptr),
            ("fz", Type::Ptr),
            ("nl", Type::Ptr),
        ],
    );
    let (x, y, z, fx, fy, fz, nl) = (
        fb.arg(0),
        fb.arg(1),
        fb.arg(2),
        fb.arg(3),
        fb.arg(4),
        fb.arg(5),
        fb.arg(6),
    );
    let zero = fb.i64c(0);
    let nv = fb.i64c(n as i64);
    fb.counted_loop("i", zero, nv, |fb, i| {
        let px = fb.gep1(Type::F64, x, i, "px");
        let xi = fb.load(Type::F64, px, "xi");
        let py = fb.gep1(Type::F64, y, i, "py");
        let yi = fb.load(Type::F64, py, "yi");
        let pz = fb.gep1(Type::F64, z, i, "pz");
        let zi = fb.load(Type::F64, pz, "zi");

        let zero = fb.i64c(0);
        let kv = fb.i64c(k as i64);
        let fzero = fb.f64c(0.0);
        let finals = fb.counted_loop_accs(
            "k",
            zero,
            kv,
            1,
            &[(Type::F64, fzero), (Type::F64, fzero), (Type::F64, fzero)],
            |fb, kk, accs| {
                let kc = fb.i64c(k as i64);
                let base = fb.mul(i, kc, "base");
                let ni = fb.add(base, kk, "ni");
                let pn = fb.gep1(Type::I64, nl, ni, "pn");
                let j = fb.load(Type::I64, pn, "j");
                let pxj = fb.gep1(Type::F64, x, j, "pxj");
                let xj = fb.load(Type::F64, pxj, "xj");
                let pyj = fb.gep1(Type::F64, y, j, "pyj");
                let yj = fb.load(Type::F64, pyj, "yj");
                let pzj = fb.gep1(Type::F64, z, j, "pzj");
                let zj = fb.load(Type::F64, pzj, "zj");
                let delx = fb.fsub(xi, xj, "delx");
                let dely = fb.fsub(yi, yj, "dely");
                let delz = fb.fsub(zi, zj, "delz");
                let dx2 = fb.fmul(delx, delx, "dx2");
                let dy2 = fb.fmul(dely, dely, "dy2");
                let dz2 = fb.fmul(delz, delz, "dz2");
                let s = fb.fadd(dx2, dy2, "s");
                let r2 = fb.fadd(s, dz2, "r2");
                let onef = fb.f64c(1.0);
                let r2inv = fb.fdiv(onef, r2, "r2inv");
                let r4 = fb.fmul(r2inv, r2inv, "r4");
                let r6inv = fb.fmul(r4, r2inv, "r6inv");
                let lj1 = fb.f64c(LJ1);
                let t1 = fb.fmul(lj1, r6inv, "t1");
                let lj2 = fb.f64c(LJ2);
                let t2 = fb.fsub(t1, lj2, "t2");
                let pot = fb.fmul(r6inv, t2, "pot");
                let force = fb.fmul(r2inv, pot, "force");
                let gx = fb.fmul(delx, force, "gx");
                let gy = fb.fmul(dely, force, "gy");
                let gz = fb.fmul(delz, force, "gz");
                let sx = fb.fadd(accs[0], gx, "sx");
                let sy = fb.fadd(accs[1], gy, "sy");
                let sz = fb.fadd(accs[2], gz, "sz");
                vec![sx, sy, sz]
            },
        );
        let pfx = fb.gep1(Type::F64, fx, i, "pfx");
        fb.store(finals[0], pfx);
        let pfy = fb.gep1(Type::F64, fy, i, "pfy");
        fb.store(finals[1], pfy);
        let pfz = fb.gep1(Type::F64, fz, i, "pfz");
        fb.store(finals[2], pfz);
    });
    fb.ret();
    let func = fb.finish();

    let mut rng = data::rng(0x4D4B);
    let xv = data::f64_vec(&mut rng, n, -5.0, 5.0);
    let yv = data::f64_vec(&mut rng, n, -5.0, 5.0);
    let zv = data::f64_vec(&mut rng, n, -5.0, 5.0);
    // Neighbor lists avoid self-reference (distance 0 would divide by zero).
    let nlv: Vec<i64> = (0..n * k)
        .map(|idx| {
            let i = idx / k;
            let mut j = data::i32_vec(&mut rng, 1, 0, n as i32)[0] as usize;
            if j == i {
                j = (j + 1) % n;
            }
            j as i64
        })
        .collect();
    let (wfx, wfy, wfz) = golden(&xv, &yv, &zv, &nlv, p);

    BuiltKernel::new(
        "md-knn",
        func,
        vec![
            RtVal::P(xa),
            RtVal::P(ya),
            RtVal::P(za),
            RtVal::P(fxa),
            RtVal::P(fya),
            RtVal::P(fza),
            RtVal::P(nla),
        ],
        vec![
            (xa, data::f64_bytes(&xv)),
            (ya, data::f64_bytes(&yv)),
            (za, data::f64_bytes(&zv)),
            (nla, data::i64_bytes(&nlv)),
        ],
        Box::new(move |mem: &mut SparseMemory| {
            data::check_f64_close("fx", &mem.read_f64_slice(fxa, n), &wfx, 1e-9)?;
            data::check_f64_close("fy", &mem.read_f64_slice(fya, n), &wfy, 1e-9)?;
            data::check_f64_close("fz", &mem.read_f64_slice(fza, n), &wfz, 1e-9)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use salam_ir::interp::{run_function, NullObserver};

    #[test]
    fn matches_golden() {
        let k = build(&Params { n_atoms: 8, k: 4 });
        salam_ir::verify_function(&k.func).unwrap();
        let mut mem = SparseMemory::new();
        k.load_into(&mut mem);
        run_function(&k.func, &k.args, &mut mem, &mut NullObserver, 50_000_000).unwrap();
        k.check(&mut mem).unwrap();
    }

    #[test]
    fn fp_heavy_datapath() {
        let k = build(&Params::default());
        let h = k.func.opcode_histogram();
        assert!(h["fmul"] >= 10, "MD-KNN is multiply-heavy: {h:?}");
        assert!(h.contains_key("fdiv"));
    }
}
